package dist

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/rl"
)

// allocBudget bounds what decoding one peer frame of n bytes may allocate:
// a small multiple of the frame itself, plus slack for fixed overhead. The
// shard decoder's worst case is about 8x (a TrajDelta header per 40 bytes,
// an rl.Step per 16).
func allocBudget(n int) uint64 { return 16*uint64(n) + 1<<20 }

// FuzzDecodePeerPayload feeds arbitrary frame payloads to every peer
// message decoder. None may panic or allocate beyond allocBudget, and
// every payload a decoder accepts must be canonical: re-encoding the
// decoded message reproduces the payload byte for byte.
func FuzzDecodePeerPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeHello(hello{World: 4, Rank: 3, Fingerprint: 0xfeedface}))
	f.Add(encodeDigest(digestMsg{Epoch: 9, Rank: 1, State: Digest{Sum: 42, Len: 1 << 20}}))
	shard := encodeShard(shardMsg{Epoch: 2, Rank: 1, Lo: 3, Hi: 5, Deltas: []core.TrajDelta{
		{Index: 3, Reward: -0.5, Improvement: 1.25, PctImprovement: 0.1, Inspections: 7, Rejections: 2,
			Steps: []rl.Step{{Obs: []float64{0.5, -1, 2}, Action: 1, LogP: -0.7}, {Obs: []float64{}, LogP: -0.01}}},
		{Index: 4},
	}})
	f.Add(shard)
	f.Add(shard[:len(shard)-1])
	// A shard whose delta count is bounded by the frame length but not by
	// the 40-byte minimum delta record.
	inflated := binary.BigEndian.AppendUint32(append([]byte(nil), shard[:21]...), 256<<10)
	f.Add(append(inflated, make([]byte, 256<<10)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, herr := decodeHello(data)
		s, serr := decodeShard(data)
		d, derr := decodeDigest(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > allocBudget(len(data)) {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(data), got)
		}
		if herr == nil {
			canonical(t, "hello", data, encodeHello(h))
		}
		if serr == nil {
			canonical(t, "shard", data, encodeShard(s))
		}
		if derr == nil {
			canonical(t, "digest", data, encodeDigest(d))
		}
	})
}

// canonical checks that an accepted payload re-encodes to itself, which
// also means the re-encoding decodes again.
func canonical(t *testing.T, kind string, data, reencoded []byte) {
	t.Helper()
	if !bytes.Equal(reencoded, data) {
		t.Fatalf("accepted %s payload is not canonical:\n got %x\nwant %x", kind, reencoded, data)
	}
}
