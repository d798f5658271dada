// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the parent module's internal packages through
// the shared "mix/" import-path prefix and the replace below.
module mix/bench

go 1.23

require mix v0.0.0

replace mix => ../
