package obs

import (
	"fmt"
	"strings"
	"testing"
)

// Spans carved from blocks and notes formatted at render time read
// exactly as eagerly built ones did: past a block's and the inline
// arrays' capacity, and for a note with more arguments than a note
// keeps inline.
func TestSpanBlocksAndDeferredNotes(t *testing.T) {
	root := NewSpan("query")
	root.Annotate("id=%d", 12345)
	root.Annotate("a=%d b=%s c=%v", 1, "two", true)
	for i := 0; i < 3*spanBlock; i++ {
		c := root.Child(fmt.Sprintf("c%d", i))
		c.Annotate("i=%d", i)
		for j := 0; j < spanBlock+1; j++ {
			c.Child(fmt.Sprintf("g%d.%d", i, j)).End()
		}
		c.End()
	}
	root.End()
	if got := len(root.Children()); got != 3*spanBlock {
		t.Fatalf("%d children, want %d", got, 3*spanBlock)
	}
	text := root.Render()
	if first := text[:strings.IndexByte(text, '\n')]; !strings.HasSuffix(first, "ms id=12345 a=1 b=two c=true") {
		t.Errorf("root line %q: notes missing or out of order", first)
	}
	for i := 0; i < 3*spanBlock; i++ {
		if !strings.Contains(text, fmt.Sprintf("\n  c%d ", i)) || !strings.Contains(text, fmt.Sprintf(" i=%d\n", i)) ||
			!strings.Contains(text, fmt.Sprintf("\n    g%d.%d ", i, spanBlock)) {
			t.Errorf("child %d or its children missing:\n%s", i, text)
		}
	}
}
