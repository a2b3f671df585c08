package tpch

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/columns.golden from this tree's generator")

const columnsGolden = "testdata/columns.golden"

// TestColumnChecksumsGolden pins the generated data itself: one FNV-1a
// hash per catalog column over every value at SF 0.25 (the scale the
// quick mode and the benchmark serve), integers as 8 little-endian
// bytes whatever their storage, strings as their bytes each followed by
// a zero. A change to how columns are stored must leave every line
// alone; a deliberate change to the generator rewrites the file with
//
//	go test ./internal/tpch -run TestColumnChecksumsGolden -update
func TestColumnChecksumsGolden(t *testing.T) {
	d := Generate(0.25)
	var b strings.Builder
	for _, tb := range Schema() {
		for _, c := range tb.Cols {
			h := fnv.New64a()
			var buf [8]byte
			n := 0
			put := func(x int64) {
				binary.LittleEndian.PutUint64(buf[:], uint64(x))
				h.Write(buf[:])
				n++
			}
			switch c.Kind {
			case KindI64, KindI8:
				v := c.Ints(d)
				for i := range v.Len() {
					put(v.At(i))
				}
			case KindStr:
				for _, s := range c.Str(d) {
					h.Write([]byte(s))
					h.Write([]byte{0})
					n++
				}
			}
			fmt.Fprintf(&b, "%s.%s %s rows=%d fnv64a=%016x\n", tb.Name, c.Name, c.Kind, n, h.Sum64())
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(columnsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(columnsGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if want := string(raw); got != want {
		t.Errorf("column checksums differ from %s:\ngot:\n%s\nwant:\n%s", columnsGolden, got, want)
	}
}
