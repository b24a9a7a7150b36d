// Package kern is half of the golden fixture: one noalloctrans chain,
// so the golden file pins that pass's messages and ordering.
package kern

// Hot is proven noalloc but reaches an allocating helper.
//
//mmutricks:noalloc
func Hot() int {
	return helper()
}

func helper() int {
	p := new(int)
	return *p
}
