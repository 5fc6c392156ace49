package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pak"
)

// writeFixtures materializes the firing-squad system and the paper's
// constraint query as JSON files in a temp dir.
func writeFixtures(t *testing.T) (systemPath, queryPath string) {
	t.Helper()
	dir := t.TempDir()
	sys, err := pak.FiringSquad(pak.Rat(1, 10), pak.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	data, err := pak.MarshalSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	systemPath = filepath.Join(dir, "fs.json")
	if err := os.WriteFile(systemPath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	queryPath = filepath.Join(dir, "query.json")
	query := `{
		"agent": "Alice",
		"action": "fire",
		"threshold": "95/100",
		"fact": {"op":"and","args":[
			{"op":"does","agent":"Alice","action":"fire"},
			{"op":"does","agent":"Bob","action":"fire"}]}
	}`
	if err := os.WriteFile(queryPath, []byte(query), 0o600); err != nil {
		t.Fatal(err)
	}
	return systemPath, queryPath
}

func TestRunFiringSquadQuery(t *testing.T) {
	systemPath, queryPath := writeFixtures(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-system", systemPath, "-query", queryPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"99/100",   // µ(φ_both|fire_A)
		"991/1000", // µ(β ≥ 0.95 | fire_A)
		"local-state independent",
		"Theorem 6.2",
		"holds",
		"recv=Yes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATED") {
		t.Errorf("no theorem should be violated:\n%s", out)
	}
}

func TestRunDumpFlag(t *testing.T) {
	systemPath, queryPath := writeFixtures(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-system", systemPath, "-query", queryPath, "-dump"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "λ") {
		t.Error("dump output missing tree root")
	}
}

func TestRunErrors(t *testing.T) {
	systemPath, queryPath := writeFixtures(t)
	dir := t.TempDir()
	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte("{{{"), 0o600); err != nil {
		t.Fatal(err)
	}
	improperQuery := filepath.Join(dir, "improper.json")
	if err := os.WriteFile(improperQuery,
		[]byte(`{"agent":"Alice","action":"never","fact":{"op":"true"}}`), 0o600); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		args []string
		code int
	}{
		{"missing flags", nil, 2},
		{"bad flag", []string{"-nope"}, 2},
		{"missing system file", []string{"-system", "/does/not/exist", "-query", queryPath}, 1},
		{"bad system json", []string{"-system", badJSON, "-query", queryPath}, 1},
		{"missing query file", []string{"-system", systemPath, "-query", "/does/not/exist"}, 1},
		{"bad query json", []string{"-system", systemPath, "-query", badJSON}, 1},
		{"bad eps", []string{"-system", systemPath, "-query", queryPath, "-eps", "nope"}, 2},
		{"bad delta", []string{"-system", systemPath, "-query", queryPath, "-delta", "nope"}, 2},
		{"improper action", []string{"-system", systemPath, "-query", improperQuery}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tt.args, &stdout, &stderr); code != tt.code {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tt.code, stderr.String())
			}
		})
	}
}

func TestRunBadThreshold(t *testing.T) {
	systemPath, _ := writeFixtures(t)
	dir := t.TempDir()
	q := filepath.Join(dir, "q.json")
	if err := os.WriteFile(q,
		[]byte(`{"agent":"Alice","action":"fire","threshold":"zzz","fact":{"op":"true"}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-system", systemPath, "-query", q}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
}

// writeBatchFixture materializes a query-batch document (the new -batch
// mode) for the firing-squad system via the facade's serializer.
func writeBatchFixture(t *testing.T) (systemPath, batchPath string) {
	t.Helper()
	systemPath, _ = writeFixtures(t)
	both := pak.And(pak.Does("Alice", "fire"), pak.Does("Bob", "fire"))
	qs := []pak.Query{
		pak.ConstraintQuery{Fact: both, Agent: "Alice", Action: "fire", Threshold: pak.Rat(95, 100)},
		pak.ExpectationQuery{Fact: both, Agent: "Alice", Action: "fire"},
		pak.TheoremQuery{Theorem: pak.TheoremExpectation, Fact: both, Agent: "Alice", Action: "fire"},
		pak.IndependenceQuery{Fact: both, Agent: "Alice", Action: "fire"},
	}
	doc, err := pak.MarshalQueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	batchPath = filepath.Join(t.TempDir(), "batch.json")
	if err := os.WriteFile(batchPath, doc, 0o600); err != nil {
		t.Fatal(err)
	}
	return systemPath, batchPath
}

func TestRunBatchMode(t *testing.T) {
	systemPath, batchPath := writeBatchFixture(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-system", systemPath, "-batch", batchPath, "-parallel", "4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Query batch (4 queries",
		"99/100", // µ through the batch path
		"pass",
		"constraint",
		"expectation",
		"independence",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBatchModeErrors(t *testing.T) {
	systemPath, batchPath := writeBatchFixture(t)
	dir := t.TempDir()
	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte("{{{"), 0o600); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
		code int
	}{
		{"both query and batch", []string{"-system", systemPath, "-query", batchPath, "-batch", batchPath}, 2},
		{"missing batch file", []string{"-system", systemPath, "-batch", "/does/not/exist"}, 1},
		{"bad batch json", []string{"-system", systemPath, "-batch", badJSON}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tt.args, &stdout, &stderr); code != tt.code {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tt.code, stderr.String())
			}
		})
	}
}

// TestRunScenarioFlag: -scenario resolves the system from the registry,
// and the output matches -system with the equivalent JSON document
// exactly.
func TestRunScenarioFlag(t *testing.T) {
	systemPath, queryPath := writeFixtures(t)

	var fromFile, fromRegistry, stderr bytes.Buffer
	if code := run([]string{"-system", systemPath, "-query", queryPath}, &fromFile, &stderr); code != 0 {
		t.Fatalf("-system run exited %d: %s", code, stderr.String())
	}
	if code := run([]string{"-scenario", "fsquad", "-query", queryPath}, &fromRegistry, &stderr); code != 0 {
		t.Fatalf("-scenario run exited %d: %s", code, stderr.String())
	}
	if fromFile.String() != fromRegistry.String() {
		t.Error("-scenario fsquad output differs from -system with the marshaled firing squad")
	}
	if !strings.Contains(fromRegistry.String(), "99/100") {
		t.Errorf("scenario output missing the paper's 99/100:\n%s", fromRegistry.String())
	}
}

func TestRunScenarioFlagErrors(t *testing.T) {
	_, queryPath := writeFixtures(t)
	tests := []struct {
		name string
		args []string
		code int
	}{
		{"both system and scenario", []string{"-system", "x.json", "-scenario", "fsquad", "-query", queryPath}, 2},
		{"neither system nor scenario", []string{"-query", queryPath}, 2},
		{"unknown scenario", []string{"-scenario", "nosuch", "-query", queryPath}, 1},
		{"bad scenario params", []string{"-scenario", "nsquad(n=zero)", "-query", queryPath}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tt.args, &stdout, &stderr); code != tt.code {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tt.code, stderr.String())
			}
		})
	}
}

// TestRunStreamMode: -stream renders one line per result as it
// completes; with -parallel 1 completion order is input order, so the
// output is deterministic.
func TestRunStreamMode(t *testing.T) {
	systemPath, batchPath := writeBatchFixture(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-system", systemPath, "-batch", batchPath, "-stream", "-parallel", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Streaming 4 queries",
		"[1/4] #0 constraint",
		"[4/4] #3",
		"99/100",
		"stream complete: 4 of 4 queries evaluated, 0 failed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stream output missing %q:\n%s", want, out)
		}
	}

	// A failing query occupies its own line and flips the exit code,
	// but its neighbours still render.
	badBatch := filepath.Join(t.TempDir(), "bad-batch.json")
	both := pak.And(pak.Does("Alice", "fire"), pak.Does("Bob", "fire"))
	doc, err := pak.MarshalQueryBatch([]pak.Query{
		pak.ConstraintQuery{Fact: both, Agent: "Alice", Action: "fire"},
		pak.ConstraintQuery{Fact: both, Agent: "nobody", Action: "fire"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badBatch, doc, 0o600); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-system", systemPath, "-batch", badBatch, "-stream", "-parallel", "1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d with a failing query, want 1", code)
	}
	if !strings.Contains(stdout.String(), "ERROR") || !strings.Contains(stdout.String(), "1 failed") {
		t.Errorf("failing stream output:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "[1/2] #0 constraint") {
		t.Errorf("healthy neighbour did not render:\n%s", stdout.String())
	}
}

// TestRunStreamRequiresBatch: -stream without -batch is a usage error.
func TestRunStreamRequiresBatch(t *testing.T) {
	systemPath, queryPath := writeFixtures(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-system", systemPath, "-query", queryPath, "-stream"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-stream requires -batch") {
		t.Errorf("stderr = %s", stderr.String())
	}
}

// TestRunBatchApprox: -approx answers the batch approx-first; the
// refined table carries each estimate's interval and the ciCovered
// self-check, and the fixed samples+seed make the output deterministic.
func TestRunBatchApprox(t *testing.T) {
	systemPath, batchPath := writeBatchFixture(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-system", systemPath, "-batch", batchPath,
		"-approx", "samples=200,seed=5", "-parallel", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"99/100",         // the exact value still wins the value column
		"estimate",       // the interval rides along
		"of 200, seed=",  // provenance
		"ciCovered=true", // the self-check (deterministic for this seed)
	} {
		if !strings.Contains(out, want) {
			t.Errorf("approx batch output missing %q:\n%s", want, out)
		}
	}

	// Same seed and budget ⇒ byte-identical output, serial or parallel.
	var again bytes.Buffer
	if code := run([]string{"-system", systemPath, "-batch", batchPath,
		"-approx", "samples=200,seed=5", "-parallel", "4"}, &again, &stderr); code != 0 {
		t.Fatalf("parallel rerun exited %d: %s", code, stderr.String())
	}
	if again.String() != out {
		t.Error("approx batch output differs between serial and parallel runs")
	}
}

// TestRunStreamApprox: under -stream -approx each supported slot prints
// its sampled estimate strictly before its refined exact line, and only
// final frames advance the progress tally.
func TestRunStreamApprox(t *testing.T) {
	systemPath, batchPath := writeBatchFixture(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-system", systemPath, "-batch", batchPath, "-stream",
		"-approx", "eps=1/10,delta=1/100,seed=11", "-parallel", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	approxAt := strings.Index(out, "[approx] #0 constraint")
	exactAt := strings.Index(out, "[exact] #0 constraint")
	if approxAt < 0 || exactAt < 0 || approxAt > exactAt {
		t.Errorf("slot 0 does not stream approx before exact:\n%s", out)
	}
	for _, want := range []string{
		"ciCovered=true",
		"stream complete: 4 of 4 queries evaluated, 0 failed",
		// Unsupported kinds keep their single exact line.
		"[exact] #2 theorem",
		"[exact] #3 independence",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("approx stream output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "[approx] #2") || strings.Contains(out, "[approx] #3") {
		t.Errorf("unsupported kinds must not emit approx lines:\n%s", out)
	}
}

// TestRunApproxOnly: -approx-only answers from samples alone — no
// refinement, no self-check.
func TestRunApproxOnly(t *testing.T) {
	systemPath, batchPath := writeBatchFixture(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-system", systemPath, "-batch", batchPath,
		"-approx", "samples=200,seed=5", "-approx-only", "-parallel", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "estimate") {
		t.Errorf("approx-only output has no estimates:\n%s", out)
	}
	if strings.Contains(out, "ciCovered") {
		t.Errorf("approx-only output claims a self-check that never ran:\n%s", out)
	}
}

// TestRunSweepSampled: -sweep with -approx runs the sampled-first
// envelope — the bench-pinned configuration prunes two interior
// assignments whose intervals cannot reach the envelope, and the exact
// bounds still match the exhaustive sweep's.
func TestRunSweepSampled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q3.json")
	doc := `{
		"agent": "General",
		"action": "fire",
		"fact": {"op":"and","args":[
			{"op":"does","agent":"General","action":"fire"},
			{"op":"does","agent":"s1","action":"fire"},
			{"op":"does","agent":"s2","action":"fire"}]}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "sweep(nsquad,n=3,loss=0..1/2/1/10)",
		"-query", path, "-approx", "samples=2400,seed=21", "-parallel", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Sampled-first sweep",
		"PRUNED (interval cannot reach the envelope)",
		"9/16 ≈ 0.562500", // exact min, from the exact pass over survivors
		"min at",
		"loss=1/2",
		"exactly evaluated",
		"4/6 assignments",
		"pruned by sampling",
		"complete",
		"correct w.p.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sampled sweep output missing %q:\n%s", want, out)
		}
	}
}

// TestRunApproxFlagErrors: the -approx grammar and its mode
// restrictions fail fast as usage errors.
func TestRunApproxFlagErrors(t *testing.T) {
	systemPath, queryPath := writeFixtures(t)
	_, batchPath := writeBatchFixture(t)
	cases := []struct {
		name string
		args []string
	}{
		{"approx with -query battery", []string{"-system", systemPath, "-query", queryPath, "-approx", "samples=100"}},
		{"approx-only without approx", []string{"-system", systemPath, "-batch", batchPath, "-approx-only"}},
		{"not key=value", []string{"-system", systemPath, "-batch", batchPath, "-approx", "samples"}},
		{"unknown key", []string{"-system", systemPath, "-batch", batchPath, "-approx", "nope=1"}},
		{"bad eps", []string{"-system", systemPath, "-batch", batchPath, "-approx", "eps=zzz"}},
		{"bad samples", []string{"-system", systemPath, "-batch", batchPath, "-approx", "samples=many"}},
		{"no budget", []string{"-system", systemPath, "-batch", batchPath, "-approx", "delta=1/100"}},
		{"delta out of range", []string{"-system", systemPath, "-batch", batchPath, "-approx", "samples=100,delta=2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
		})
	}
}

// writeSweepQuery materializes the nsquad constraint document the sweep
// tests share.
func writeSweepQuery(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep-query.json")
	doc := `{
		"agent": "General",
		"action": "fire",
		"fact": {"op":"and","args":[
			{"op":"does","agent":"General","action":"fire"},
			{"op":"does","agent":"s1","action":"fire"}]}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSweepMode(t *testing.T) {
	queryPath := writeSweepQuery(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "sweep(nsquad, loss=0.0..0.5/0.1, n=2)",
		"-query", queryPath, "-parallel", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	// Progressive lines carry the running envelope; serial order pins
	// the exact sequence.
	for _, want := range []string{
		"6 assignments",
		"[1/6] #0 loss=0",
		"env=[99/100, 1]", // after the second assignment
		"Adversary envelope",
		"3/4 ≈ 0.750000",
		"loss=1/2",
		"6/6 assignments",
		"complete",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// The one-shot facade agrees with the rendered bounds.
	outc, err := pak.EvalSweep("sweep(nsquad, loss=0.0..0.5/0.1, n=2)", pak.ConstraintQuery{
		Fact:  pak.AllFire(2),
		Agent: "General", Action: "fire",
	})
	if err != nil {
		t.Fatal(err)
	}
	env := outc.Result.Envelope
	if env.Min.RatString() != "3/4" || env.Max.RatString() != "1" {
		t.Errorf("EvalSweep envelope = [%s, %s]", env.Min.RatString(), env.Max.RatString())
	}
}

func TestRunSweepModeErrors(t *testing.T) {
	queryPath := writeSweepQuery(t)
	cases := []struct {
		name string
		args []string
	}{
		{"sweep with system", []string{"-sweep", "sweep(nsquad,loss=0..1/5/1/10)", "-system", "x.json", "-query", queryPath}},
		{"sweep with stream", []string{"-sweep", "sweep(nsquad,loss=0..1/5/1/10)", "-batch", queryPath, "-stream"}},
		{"bad space", []string{"-sweep", "sweep(nosuch,loss=0..1)", "-query", queryPath}},
		{"bad range", []string{"-sweep", "sweep(nsquad,loss=1..0)", "-query", queryPath}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code == 0 {
				t.Errorf("exit 0, want failure; stdout: %s", stdout.String())
			}
		})
	}
}

// TestRunSweepModeHardFailuresExit: a sweep whose query hard-fails on
// some assignments (here: the fact names s3, an agent only the n=4
// squad has) must exit non-zero and say so — bounds that silently
// exclude failed assignments must never present as a complete
// envelope.
func TestRunSweepModeHardFailuresExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.json")
	doc := `{
		"agent": "General",
		"action": "fire",
		"fact": {"op":"does","agent":"s3","action":"fire"}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "sweep(nsquad,n=2..4)", "-query", path, "-parallel", "1"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 despite failed assignments; stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "excludes failed assignments") {
		t.Errorf("stderr does not name the failure class: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "ERROR") {
		t.Errorf("progress lines do not mark the hard failures:\n%s", stdout.String())
	}
}

// TestRunBackendFlagRemoved: pakcheck has no -backend flag; passing
// one is the ordinary undefined-flag usage error (exit 2).
func TestRunBackendFlagRemoved(t *testing.T) {
	systemPath, batchPath := writeBatchFixture(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-system", systemPath, "-batch", batchPath, "-backend", "lp"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-backend exited %d, want 2: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -backend") {
		t.Errorf("stderr does not name the undefined flag: %s", stderr.String())
	}
}
