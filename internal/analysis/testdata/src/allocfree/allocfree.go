// Package allocfree is the analysistest fixture for the allocfree
// analyzer. Each bad* function commits exactly one steady-state heap
// allocation of the kind the analyzer bans; each ok* function uses the
// sanctioned pooled/cached counterpart.
package allocfree

import "fmt"

type thing struct {
	id   int
	next *thing
}

type pool struct {
	free  []*thing
	stats [8]int
}

//bfgts:allocfree
func badAddrLit(id int) *thing {
	return &thing{id: id} // want `&composite literal escapes to the heap in //bfgts:allocfree function badAddrLit`
}

//bfgts:allocfree
func badMake(n int) []int {
	return make([]int, n) // want `make allocates in //bfgts:allocfree function`
}

//bfgts:allocfree
func badNew() *thing {
	return new(thing) // want `new allocates in //bfgts:allocfree function`
}

//bfgts:allocfree
func badLits() ([]int, map[string]int) {
	xs := []int{1, 2}     // want `slice literal allocates in //bfgts:allocfree function badLits`
	m := map[string]int{} // want `map literal allocates in //bfgts:allocfree function badLits`
	return xs, m
}

//bfgts:allocfree
func badFreshAppend(v int) []int {
	var xs []int
	xs = append(xs, v) // want `append to fresh local slice xs allocates every call`
	return xs
}

//bfgts:allocfree
func badSecondSlice(xs []int, v int) []int {
	ys := xs
	ys = append(xs, v) // want `append result does not flow back into its own slice`
	return ys
}

// okFieldAppend self-appends into pooled struct storage: steady state
// reuses the retained capacity, which is what the runtime gates pin.
//
//bfgts:allocfree
func okFieldAppend(p *pool, t *thing) {
	p.free = append(p.free, t)
}

// okParamAppend grows a caller-provided buffer.
//
//bfgts:allocfree
func okParamAppend(buf []int, n int) []int {
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}

// okBackedLocal re-slices existing storage; the local has backing capacity.
//
//bfgts:allocfree
func okBackedLocal(p *pool, t *thing) {
	xs := p.free[:0]
	xs = append(xs, t)
	p.free = xs
}

// okPoolMiss is the sanctioned slow path: the refill allocation carries an
// explicit per-line suppression, mirroring tm.System.Begin.
//
//bfgts:allocfree
func okPoolMiss(p *pool) *thing {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		return t
	}
	//bfgts:ignore allocfree pool miss refill is not steady state
	return &thing{}
}

var sink interface{}

//bfgts:allocfree
func badBoxAssign(v int) {
	sink = v // want `int boxed into interface allocates in //bfgts:allocfree function`
}

//bfgts:allocfree
func badBoxReturn(v int) interface{} {
	return v // want `int boxed into interface allocates in //bfgts:allocfree function`
}

func takeAny(v interface{}) { sink = v }

//bfgts:allocfree
func badBoxCall(n int) {
	takeAny(n) // want `int boxed into interface allocates in //bfgts:allocfree function`
}

// okBoxPointer: pointer-shaped values ride in the interface word without a
// heap box.
//
//bfgts:allocfree
func okBoxPointer(t *thing) {
	sink = t
}

func takeVariadic(vs ...interface{}) {
	for _, v := range vs {
		sink = v
	}
}

// okEllipsis passes an existing slice through a variadic parameter; no
// per-element boxing happens at the call site.
//
//bfgts:allocfree
func okEllipsis(args []interface{}) {
	takeVariadic(args...)
}

//bfgts:allocfree
func badClosure(n int) func() int {
	f := func() int { return n } // want `capturing closure escapes in //bfgts:allocfree function badClosure`
	return f
}

func each(p *pool, f func(*thing)) {
	for _, t := range p.free {
		f(t)
	}
}

// okIteratorClosure: a capturing closure passed directly to a same-package
// iterator (the lineSet.each pattern) does not escape.
//
//bfgts:allocfree
func okIteratorClosure(p *pool, total *int) {
	each(p, func(t *thing) { *total += t.id })
}

// okPureClosure captures nothing; it compiles to a static function value.
//
//bfgts:allocfree
func okPureClosure() func(int) int {
	return func(x int) int { return x * 2 }
}

// okPanic: crash paths may allocate; the panic argument tree is exempt.
//
//bfgts:allocfree
func okPanic(p *pool, idx int) int {
	if idx < 0 || idx >= len(p.stats) {
		panic(fmt.Sprintf("allocfree: stat index %d out of range", idx))
	}
	return p.stats[idx]
}

// Generic receivers (the STM's typed value cells): a T stored in an
// interface is boxed whatever T turns out to be, a *T rides in the
// interface word, and new(T) is still new.

type gcell[T any] struct {
	pending any
	free    []*T
}

//bfgts:allocfree
func (g *gcell[T]) badBoxValue(val T) {
	g.pending = val // want `T boxed into interface allocates`
}

//bfgts:allocfree
func (g *gcell[T]) badFresh() *T {
	return new(T) // want `new allocates in //bfgts:allocfree function`
}

//bfgts:allocfree
func (g *gcell[T]) okCellPointer(val T) {
	n := len(g.free)
	cell := g.free[n-1]
	g.free = g.free[:n-1]
	*cell = val
	g.pending = cell
}

//bfgts:allocfree
func (g *gcell[T]) okUnbox() T {
	return *g.pending.(*T)
}

//bfgts:allocfree
func okGenericCopy[T any](dst *T, src T) T {
	var tmp T = src
	*dst = tmp
	return tmp
}

// unannotated functions are outside the contract entirely.
func unannotatedMake(n int) []*thing {
	return make([]*thing, 0, n)
}
