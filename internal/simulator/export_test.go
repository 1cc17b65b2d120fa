package simulator

// OnEngine exposes onEngine to the external test package, whose
// suites import internal/core and so cannot live in package simulator.
var OnEngine = onEngine
