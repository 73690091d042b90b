package experiments

import "strings"

// Figure is one runnable entry of the evaluation: it regenerates a table or
// figure of the paper (or the chaos harness) and renders it as text.
type Figure struct {
	Name string
	// Paper marks the entries that belong to the paper's evaluation; the
	// chaos harness is a robustness gate, not a figure, and only runs when
	// asked for by name.
	Paper bool
	Run   func(Options) (string, error)
	// run also returns the typed rows behind the text, so the golden
	// harness can compare rows as well as rendered output.
	run func(Options) (rows any, text string, err error)
}

// fig builds a catalog entry from a figure's row producer and renderer.
func fig[R any](name string, paper bool, run func(Options) (R, error), render func(R) string) Figure {
	f := Figure{Name: name, Paper: paper}
	f.run = func(o Options) (any, string, error) {
		rows, err := run(o)
		if err != nil {
			return nil, "", err
		}
		return rows, render(rows), nil
	}
	f.Run = func(o Options) (string, error) {
		_, text, err := f.run(o)
		return text, err
	}
	return f
}

// Catalog returns every figure in the canonical output order used by
// cmd/damnbench, the golden harness and the bench harness.
func Catalog() []Figure {
	return []Figure{
		fig("table1", true, Table1, RenderTable1),
		fig("fig4", true, Fig4, RenderFig4),
		fig("fig5", true, Fig5, RenderFig5),
		fig("fig6", true, Fig6, RenderFig6),
		fig("table3", true, Table3, RenderTable3),
		fig("fig2", true, Fig2, RenderFig2),
		fig("fig7", true, Fig7, RenderFig7),
		fig("fig8", true, Fig8, RenderFig8),
		fig("fig9", true, Fig9, RenderFig9),
		fig("fig10", true, Fig10, RenderFig10),
		fig("fig11", true, Fig11, RenderFig11),
		fig("ablations", true, Ablations, RenderAblations),
		fig("footnote5", true, Footnote5, RenderFootnote5),
		fig("scaling", false, Scaling, RenderScaling),
		fig("chaos", false, Chaos, RenderChaos),
		fig("recovery", false, RecoveryFigure, RenderRecovery),
		fig("loss", false, Loss, RenderLoss),
		fig("cluster", false, Cluster, RenderCluster),
		fig("tenants", false, Tenants, RenderTenants),
		fig("bypass", false, Bypass, RenderBypass),
	}
}

// RunSuite runs every paper figure of the catalog in order and returns the
// concatenated rendered output. This is the determinism contract surface:
// the returned text is byte-identical for any Options.Parallel value.
func RunSuite(opts Options) (string, error) {
	var b strings.Builder
	for _, f := range Catalog() {
		if !f.Paper {
			continue
		}
		out, err := f.Run(opts)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
