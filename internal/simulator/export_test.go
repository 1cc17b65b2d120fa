package simulator

// WaveRuns returns how many runs the wave tier has taken in this
// process, so the external suites, which import internal/core and so
// cannot live in package simulator, can pin a formulation to it.
func WaveRuns() int64 { return waveRuns.Load() }
