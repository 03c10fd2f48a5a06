package fleet

// dashboardHTML is the whole dashboard: one self-contained page, no
// external scripts, fonts, or build step — it must render from an
// air-gapped cluster head node over plain HTTP. It polls /v1/fleet every
// two seconds and re-renders.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>schedinspector fleet</title>
<style>
  :root { color-scheme: dark; }
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
         background: #0d1117; color: #c9d1d9; margin: 0; padding: 1.2rem 1.6rem; }
  h1 { font-size: 1.05rem; margin: 0 0 .2rem; color: #e6edf3; }
  .sub { color: #8b949e; margin-bottom: 1rem; }
  table { border-collapse: collapse; margin: .6rem 0 1.2rem; width: 100%; }
  th, td { text-align: left; padding: .25rem .7rem .25rem 0; border-bottom: 1px solid #21262d;
           vertical-align: top; white-space: nowrap; }
  th { color: #8b949e; font-weight: 600; }
  td.num { font-variant-numeric: tabular-nums; }
  .up { color: #3fb950; } .down { color: #f85149; font-weight: 700; }
  .sev-critical { color: #f85149; font-weight: 700; }
  .sev-warning { color: #d29922; }
  .sev-info { color: #58a6ff; }
  .kind { color: #8b949e; }
  .ok { color: #3fb950; } .rej { color: #f85149; } .rb { color: #d29922; }
  .none { color: #484f58; font-style: italic; }
  section h2 { font-size: .95rem; color: #e6edf3; margin: 1.2rem 0 .2rem; }
  #err { color: #f85149; min-height: 1.2em; }
  .wrap { white-space: normal; max-width: 42rem; }
</style>
</head>
<body>
<h1>schedinspector fleet</h1>
<div class="sub">window <span id="win">–</span>s · <span id="stamp">connecting…</span></div>
<div id="err"></div>

<section><h2>targets</h2>
<table><thead><tr>
  <th>target</th><th>kind</th><th>state</th><th>decisions/s</th><th>epochs/s</th>
  <th>lock wait p99</th><th>exchange p99</th><th>gen</th><th>detail</th>
</tr></thead><tbody id="targets"></tbody></table></section>

<section><h2>dist</h2><div id="dist" class="none">no train workers</div></section>

<section><h2>alerts</h2>
<table><thead><tr>
  <th>severity</th><th>rule</th><th>target</th><th>for</th><th>message</th>
</tr></thead><tbody id="alerts"></tbody></table></section>

<section><h2>online candidates</h2>
<table><thead><tr>
  <th>target</th><th>gen</th><th>verdict</th><th>cand</th><th>serving</th><th>margin</th><th>age</th>
</tr></thead><tbody id="online"></tbody></table></section>

<section><h2>rules</h2>
<table><thead><tr><th>rule</th><th>evaluated</th><th>active</th></tr></thead>
<tbody id="rules"></tbody></table></section>

<script>
"use strict";
const $ = id => document.getElementById(id);
const esc = s => String(s).replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const num = (v, d) => (v === undefined || v === null || !isFinite(v)) ? "–"
  : Number(v).toFixed(d === undefined ? 2 : d);
const ms = v => !isFinite(v) ? "–" : (v >= 1 ? num(v, 2) + "s" : num(v * 1000, 1) + "ms");
const ago = (now, t) => !t ? "–" : num(Math.max(0, now - t), 0) + "s";

function row(cells) { return "<tr>" + cells.map(c => "<td class=\"num\">" + c + "</td>").join("") + "</tr>"; }
function empty(tbody, cols, text) {
  tbody.innerHTML = "<tr><td colspan=\"" + cols + "\" class=\"none\">" + esc(text) + "</td></tr>";
}

function render(fs) {
  $("win").textContent = num(fs.window_sec, 0);
  $("stamp").textContent = "updated " + new Date().toLocaleTimeString();

  const tb = $("targets"); tb.innerHTML = "";
  for (const t of fs.targets || []) {
    const q = t.quantiles || {}, r = t.rates || {}, l = t.latest || {};
    const state = t.up ? '<span class="up">up</span>' : '<span class="down">DOWN</span>';
    const detail = t.up ? ago(fs.now_unix, t.last_scrape_unix) + " ago, " + t.points + " pts"
                        : esc(t.last_error || "");
    tb.insertAdjacentHTML("beforeend", row([
      esc(t.name), '<span class="kind">' + esc(t.kind) + "</span>", state,
      num(r["schedinspector_inspect_decisions_total"]),
      num(r["schedinspector_dist_epochs_total"]),
      ms(q["schedinspector_inspect_coalesce_seconds/p99"]),
      ms(q["schedinspector_dist_exchange_seconds/p99"]),
      num(l["schedinspector_model_generation"], 0),
      '<span class="wrap">' + detail + "</span>",
    ]));
  }
  if (!(fs.targets || []).length) empty(tb, 9, "no targets");

  const d = fs.dist;
  $("dist").innerHTML = !d ? '<span class="none">no train workers</span>' :
    d.workers + " workers · " + num(d.epoch_rate) + " epochs/s fleet-wide · skew " +
    num(d.skew_ratio) + "x" + (d.max_rank ? " (max: " + esc(d.max_rank) + ")" : "") +
    " · straggler s/s: " + Object.entries(d.straggler_rates || {})
      .map(([k, v]) => esc(k) + "=" + num(v, 3)).join(" ");

  const ab = $("alerts"); ab.innerHTML = "";
  for (const a of fs.alerts || []) {
    ab.insertAdjacentHTML("beforeend", row([
      '<span class="sev-' + esc(a.severity) + '">' + esc(a.severity) + "</span>",
      esc(a.rule), esc(a.target), ago(fs.now_unix, a.fired_at_unix),
      '<span class="wrap">' + esc(a.message) + "</span>",
    ]));
  }
  if (!(fs.alerts || []).length) empty(ab, 5, "none active");

  const ob = $("online"); ob.innerHTML = "";
  let any = false;
  for (const t of fs.targets || []) {
    const recs = (t.online_history && t.online_history.candidates) || [];
    for (const c of recs.slice().reverse()) {
      any = true;
      const cls = c.verdict === "promoted" || c.verdict === "confirmed" ? "ok"
        : c.verdict === "rolled-back" ? "rb" : "rej";
      ob.insertAdjacentHTML("beforeend", row([
        esc(t.name), num(c.generation, 0),
        '<span class="' + cls + '">' + esc(c.verdict) + "</span>",
        num(c.candidate_score, 4), num(c.serving_score, 4), num(c.margin, 4),
        ago(fs.now_unix, c.unix),
      ]));
    }
  }
  if (!any) empty(ob, 7, "no candidate verdicts yet");

  const rb = $("rules"); rb.innerHTML = "";
  for (const r of fs.rules || []) {
    rb.insertAdjacentHTML("beforeend",
      row([esc(r.name), r.evaluated, r.active ? '<span class="sev-warning">' + r.active + "</span>" : "0"]));
  }
}

async function tick() {
  try {
    const resp = await fetch("/v1/fleet");
    if (!resp.ok) throw new Error("HTTP " + resp.status);
    render(await resp.json());
    $("err").textContent = "";
  } catch (e) {
    $("err").textContent = "fetch /v1/fleet failed: " + e;
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
