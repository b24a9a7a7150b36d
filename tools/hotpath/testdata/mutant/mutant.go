// Package mutant holds one function per allocating construct, each
// written so that the allocation escapes, plus clean functions: one
// whose only allocations build a panic's value and one that calls
// through a listed interface. The hot path test compiles it and
// requires the check to name every function but the clean ones.
package mutant

import "strconv"

type T struct{ x int }

func (t *T) Get() int { return t.x }

var (
	ints  []int
	bytes []byte
	ptr   *T
	m     map[int]int
	fn    func() int
	boxed any
	str   string
)

func Append(s []int) { ints = append(s, 1) }

func Make(n int) { ints = make([]int, n) }

func New() { ptr = new(T) }

func MapLit() { m = map[int]int{1: 2} }

func SliceLit(a, b int) { ints = []int{a, b} }

func AddrLit(x int) { ptr = &T{x} }

func Closure(x int) { fn = func() int { return x } }

func Go() { go New() }

func MethodValue(t *T) { fn = t.Get }

func CallFuncValue() int { return fn() }

func Box(x int) { boxed = x }

func Concat(a, b string) { str = a + b }

func StringToBytes(s string) { bytes = []byte(s) }

func Variadic(a, b int) { keep(a, b) }

//go:noinline
func keep(xs ...int) { ints = xs }

func Stdlib(x int) { str = strconv.Itoa(x) }

func DeferInLoop(n int) {
	for i := 0; i < n; i++ {
		defer New()
	}
}

// I is a listed interface: ViaIface's indirect call goes through it.
type I interface{ Get() int }

func ViaIface(i I) int { return i.Get() }

// Panics boxes x and formats a message, but only to panic with them.
func Panics(x int) int {
	if x < 0 {
		panic("negative: " + strconv.Itoa(x))
	}
	if x > 100 {
		panic(x)
	}
	return x * 2
}
