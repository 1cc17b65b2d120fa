package experiments

import (
	"fmt"
	"io"
	"strings"

	"matscale/internal/core"
	"matscale/internal/model"
	"matscale/internal/sweep"
)

// RunAll regenerates the full reproduction — every table, figure and
// analysis — and writes the rendered reports to w in the paper's
// order. The quick flag skips the two CM-5 sweeps (Figures 4 and 5),
// which dominate the running time.
//
// The report sections run concurrently on workers host goroutines
// (≤ 0: all CPUs), each rendering into its own buffer, and the buffers
// are emitted in the paper's order — so the bytes written to w do not
// depend on the worker count, only the wall-clock time does. The heavy
// sections (the CM-5 efficiency sweeps, the prediction grid, the
// isoefficiency validation) additionally parallelize their inner cell
// loops on the same pool size.
func RunAll(w io.Writer, quick bool, workers int) error {
	type section struct {
		title string
		run   func() (string, error)
	}
	str := func(f func() string) func() (string, error) {
		return func() (string, error) { return f(), nil }
	}

	sections := []section{
		{"Table 1 — overheads and scalability (ts=150, tw=3)",
			str(func() string { return Table1(model.Params{Ts: 150, Tw: 3}) })},
	}
	for fig := 1; fig <= 3; fig++ {
		fig := fig
		pr, err := FigureParams(fig)
		if err != nil {
			return err
		}
		sections = append(sections, section{
			fmt.Sprintf("Figure %d — regions of superiority (ts=%g, tw=%g)", fig, pr.Ts, pr.Tw),
			func() (string, error) {
				m, err := RegionFigure(fig, 30, 16)
				if err != nil {
					return "", err
				}
				return m.Render(), nil
			}})
	}
	if !quick {
		for fig := 4; fig <= 5; fig++ {
			fig := fig
			sections = append(sections, section{
				fmt.Sprintf("Figure %d — CM-5 efficiency curves", fig),
				func() (string, error) {
					f, err := EfficiencyFigure(fig, workers)
					if err != nil {
						return "", err
					}
					return f.Render(), nil
				}})
		}
	}
	sections = append(sections,
		section{"Section 6 — pairwise crossovers",
			str(func() string { return CrossoverReport(model.Params{Ts: 150, Tw: 3}) })},
		section{"Section 7 — all-port communication",
			str(func() string { return AllPortReport(model.Params{Ts: 10, Tw: 3}) })},
		section{"Section 8 — technology tradeoffs",
			func() (string, error) {
				return TechnologyReport(model.Params{Ts: 0.5, Tw: 3}, 1<<14, 0.05, 2)
			}},
		section{"Section 5.4.1 — GK with the Johnsson-Ho broadcast",
			str(func() string { return ImprovedGKReport(model.Params{Ts: 9, Tw: 1}, 4096) })},
		section{"Methodology validation — isoefficiency holds in simulation",
			func() (string, error) {
				pts, err := IsoefficiencyValidation(model.Params{Ts: 17, Tw: 3}, 0.5, "cannon", []int{4, 16, 64, 256}, workers)
				if err != nil {
					return "", err
				}
				return RenderIso("cannon", pts), nil
			}},
		section{"Methodology validation — Section 6 predictions vs simulated races",
			func() (string, error) {
				outcomes, err := PredictionAccuracy(model.Params{Ts: 17, Tw: 3}, []int{16, 32, 48, 64}, []int{64, 256, 512}, workers)
				if err != nil {
					return "", err
				}
				return RenderPrediction(outcomes), nil
			}},
		section{"Section 3 — fixed-size speedup saturation",
			func() (string, error) {
				sat, err := SpeedupSaturation(model.Params{Ts: 150, Tw: 3}, core.Cannon, 64, []int{1, 4, 16, 64, 256, 1024}, workers)
				if err != nil {
					return "", err
				}
				return RenderSpeedup(64, sat), nil
			}},
	)

	outs := make([]string, len(sections))
	if err := sweep.ForEach(workers, len(sections), func(i int) error {
		s, err := sections[i].run()
		outs[i] = s
		return err
	}); err != nil {
		return err
	}

	var sb strings.Builder
	for i, s := range sections {
		fmt.Fprintf(&sb, "\n================ %s ================\n\n", s.title)
		sb.WriteString(outs[i])
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
