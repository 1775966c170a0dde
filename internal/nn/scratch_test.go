package nn

import (
	"testing"

	"fedsu/internal/tensor"
)

// TestStepScratchRedrawsOnlyOnShapeChange: a step buffer of the wanted
// shape is kept as it is; a missing one or one of another shape is replaced
// by an arena draw of the wanted shape.
func TestStepScratchRedrawsOnlyOnShapeChange(t *testing.T) {
	a := stepScratch(nil, 4, 3)
	if !hasShape(a, []int{4, 3}) {
		t.Fatalf("drawn with shape %v, want [4 3]", a.Shape())
	}
	if b := stepScratch(a, 4, 3); b != a {
		t.Fatal("a buffer of the wanted shape was redrawn")
	}
	c := stepScratch(a, 3, 4)
	if !hasShape(c, []int{3, 4}) {
		t.Fatalf("redrawn with shape %v, want [3 4]", c.Shape())
	}
	d := stepScratch(c, 12)
	if !hasShape(d, []int{12}) {
		t.Fatalf("redrawn with shape %v, want [12]", d.Shape())
	}
	tensor.PutScratch(d)
}

// TestStepScratchLikeFollowsShape: stepScratchLike keeps a buffer already
// shaped like x and otherwise draws one of x's shape, the same-shape fast
// path and the draw agreeing with stepScratch.
func TestStepScratchLikeFollowsShape(t *testing.T) {
	x := tensor.New(2, 5)
	a := stepScratchLike(nil, x)
	if !a.SameShape(x) {
		t.Fatalf("drawn with shape %v, want %v", a.Shape(), x.Shape())
	}
	if b := stepScratchLike(a, x); b != a {
		t.Fatal("a buffer shaped like x was redrawn")
	}
	y := tensor.New(5, 2)
	c := stepScratchLike(a, y)
	if !c.SameShape(y) {
		t.Fatalf("redrawn with shape %v, want %v", c.Shape(), y.Shape())
	}
	tensor.PutScratch(c)
}
