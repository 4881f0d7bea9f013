package corpus

import (
	"context"
	"fmt"
	"strings"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/sweep"
)

// Verdict is the differential-validation outcome of one generated
// program. It round-trips through encoding/json unchanged (all fields
// are integers, shortest-form floats, strings and bools), which is what
// lets checkpointed corpus runs resume byte-identically.
type Verdict struct {
	Params
	PredUS float64 `json:"pred_us"` // interpreted prediction
	MeasUS float64 `json:"meas_us"` // deterministic simulated execution
	RelErr float64 `json:"rel_err"` // |pred-meas|/meas
	Bound  float64 `json:"bound"`   // family error bound
	// PlainUS is the prediction of the directive-stripped twin, recorded
	// for programs with a provable INDEPENDENT annotation (Indep == 1):
	// the harness requires PredUS < PlainUS.
	PlainUS float64 `json:"plain_us,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// Pass reports whether the program cleared every validation gate.
func (v Verdict) Pass() bool { return v.Err == "" && v.RelErr <= v.Bound }

// Options configure a validation run.
type Options struct {
	// Engine is the sweep engine to run on (nil = the shared default:
	// compile results and deterministic measurements are cached).
	Engine *sweep.Engine
	// Checkpoint enables durable progress: a killed run resumes from the
	// completed programs and still produces a byte-identical report.
	Checkpoint *sweep.Checkpoint
}

// measureSpec pins the deterministic simulated execution every corpus
// program is validated against: one run, no load perturbation, no timer
// quantization — (program, spec) fully determines the measured time.
func measureSpec() sweep.MeasureSpec {
	spec := sweep.DefaultMeasureSpec(1, 0)
	spec.TimerResUS = 0
	return spec
}

// interpOptions are the prediction options for one program: engine
// defaults plus the template's declared mask density.
func interpOptions(p Params) core.Options {
	opts := core.DefaultOptions()
	opts.MaskDensity = p.MaskDensity()
	return opts
}

// ValidateOne drives one generated program through the differential
// gates: (1) compile and lint clean at error severity, (2) bit-identical
// reports from the tree-walking and closure-compiled prediction engines,
// (3) prediction within the family's relative-error bound of the
// simulated execution. The returned Verdict carries the numbers either
// way; gate failures land in Err.
func ValidateOne(ctx context.Context, eng *sweep.Engine, pr Program) Verdict {
	v := Verdict{Params: pr.Params, Bound: pr.Family.ErrorBound()}

	prog, err := eng.CompileContext(ctx, pr.Source, compiler.Options{})
	if err != nil {
		v.Err = fmt.Sprintf("compile: %v", err)
		return v
	}
	refuted := false
	for _, d := range analysis.Analyze(prog) {
		if d.Code == "HPF0501" && d.Severity >= analysis.SevError {
			refuted = true
			if !pr.ExpectRefuted() {
				v.Err = fmt.Sprintf("lint: %s", d.String())
				return v
			}
			continue
		}
		if d.Severity >= analysis.SevError {
			v.Err = fmt.Sprintf("lint: %s", d.String())
			return v
		}
	}
	if pr.ExpectRefuted() && !refuted {
		v.Err = "verifier accepted an INDEPENDENT annotation built to be refutable (no HPF0501)"
		return v
	}

	opts := interpOptions(pr.Params)
	itTree, err := core.NewContext(ctx, prog, nil, opts)
	if err != nil {
		v.Err = fmt.Sprintf("interp: %v", err)
		return v
	}
	treeRep, err := itTree.InterpretTree()
	if err != nil {
		v.Err = fmt.Sprintf("interp(tree): %v", err)
		return v
	}
	cp, err := core.CompilePrediction(ctx, prog, nil, opts)
	if err != nil {
		v.Err = fmt.Sprintf("interp: %v", err)
		return v
	}
	compRep, err := cp.Evaluate(ctx)
	if err != nil {
		v.Err = fmt.Sprintf("interp(compiled): %v", err)
		return v
	}
	if d := core.DiffReports(treeRep, compRep); d != "" {
		v.Err = fmt.Sprintf("tree/compiled divergence: %s", d)
		return v
	}
	v.PredUS = compRep.TotalUS()

	if pr.Indep == 1 {
		// Differential directive gate: the identical program with the
		// INDEPENDENT lines stripped keeps the serialized DO loop, so
		// the annotated prediction must come out strictly lower.
		plain := strings.ReplaceAll(pr.Source, "!HPF$ INDEPENDENT\n", "")
		plainRep, err := eng.InterpretContext(ctx, plain, compiler.Options{}, opts)
		if err != nil {
			v.Err = fmt.Sprintf("interp(plain twin): %v", err)
			return v
		}
		v.PlainUS = plainRep.TotalUS()
		if v.PredUS >= v.PlainUS {
			v.Err = fmt.Sprintf("proven INDEPENDENT did not lower the prediction: %.1fus annotated vs %.1fus plain", v.PredUS, v.PlainUS)
			return v
		}
	}

	res, err := eng.MeasureContext(ctx, pr.Source, compiler.Options{}, measureSpec())
	if err != nil {
		v.Err = fmt.Sprintf("execute: %v", err)
		return v
	}
	v.MeasUS = res.MeasuredUS
	if v.MeasUS > 0 {
		v.RelErr = (v.PredUS - v.MeasUS) / v.MeasUS
		if v.RelErr < 0 {
			v.RelErr = -v.RelErr
		}
	} else {
		v.Err = "execute: zero measured time"
	}
	return v
}

// Validate runs the differential harness over a generated corpus and
// aggregates the verdicts into a metrics report. Programs are validated
// concurrently on the sweep engine; with a Checkpoint, completed
// programs survive a kill and a resumed run reproduces the exact bytes
// of an uninterrupted one (every gate is deterministic).
func Validate(ctx context.Context, progs []Program, opts Options) (*Report, error) {
	eng := opts.Engine
	if eng == nil {
		eng = sweep.Default()
	}
	verdicts, err := sweep.MapCheckpointCtx(ctx, eng, len(progs), opts.Checkpoint, func(i int) (Verdict, error) {
		return ValidateOne(ctx, eng, progs[i]), nil
	})
	if err != nil {
		return nil, err
	}
	return BuildReport(verdicts), nil
}
