package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"prema/internal/graph"
)

// TestPartitionPinned holds Partition's output to hashes recorded before the
// partitioner's hot spots were rewritten, so a change that alters any
// tie-break — not only the cut or the balance — fails here. The edgeless
// graph is the shape the stop-and-repartition model hands the URA (every
// vertex its own component); the grid is partition.kway_ms's.
func TestPartitionPinned(t *testing.T) {
	edgeless := graph.NewBuilder(4096)
	for v := 0; v < 4096; v++ {
		edgeless.SetVWgt(v, int64(1+(v*7919)%997))
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
		want string
	}{
		{"edgeless4096_k64", edgeless.Build(), 64, "48a1885df4cd7fef"},
		{"grid32x32x8_k128", graph.Grid3D(32, 32, 8), 128, "06babd703c639f9d"},
	} {
		part := Partition(c.g, c.k, Options{Seed: 1})
		h := sha256.New()
		for _, p := range part {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(p)))
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
			t.Errorf("%s: partition hash %s, want %s", c.name, got, c.want)
		}
	}
}
