// Package directives is the analysistest fixture for the directives
// validator: unknown names, misplaced annotations, and bad arities. The
// `// want` expectations trail the offending directive comments (the
// harness strips them before directive parsing).
package directives

//bfgts:allocfree
func okAllocFree() int {
	return 1
}

//bfgts:seqlock version
func okSeqlockArgs() int {
	return 2
}

//bfgts:nosuchcheck // want `unknown directive //bfgts:nosuchcheck`
func badUnknown() int {
	return 3
}

// bfgts:allocfree // want `malformed //bfgts: directive: no space allowed after //`
func badSpaced() int {
	return 4
}

//bfgts:seqlock // want `//bfgts:seqlock takes at least 1 argument, got 0`
func badNoArg() int {
	return 5
}

//bfgts:lock-rank writes extra // want `//bfgts:lock-rank takes 1 argument, got 2`
func badTwoArgs() int {
	return 6
}

//bfgts:allocfree hot // want `//bfgts:allocfree takes no arguments, got 1`
func badAllocArgs() int {
	return 7
}

//bfgts:spsc-producer // want `//bfgts:spsc-producer must be on a function declaration's doc comment`
type misplacedOnType struct {
	n int
}

func okLineDirectives(m *misplacedOnType) int {
	//bfgts:ignore determinism fixture demonstrates a justified suppression
	//bfgts:pin-handoff released in flushLoop
	//bfgts:lock-handoff released by put
	return m.n
}

func badLineDirectives(m *misplacedOnType) int {
	//bfgts:ignore determinism // want `//bfgts:ignore takes at least 2 arguments, got 1`
	//bfgts:seqlock-pub cur // want `//bfgts:seqlock-pub must be on a function declaration's doc comment`
	return m.n
}
