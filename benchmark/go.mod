// The benchmark is a module of its own so it builds from its own
// directory without touching the repository's build file; the replace
// points at the checkout it sits in, which is the program under test.
module fedms/benchmark

go 1.22

require fedms v0.0.0

replace fedms => ../
