package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllCalcModes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-rhostar", "-ratio", "-duty", "-bounds"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"Rate thresholds", "improvement bounds", "Duty cycle", "Theorem 7"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestNoModeIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// Out-of-range flags are user input, not bugs: each exits 2 with one
// "wdccalc: …" line on stderr instead of a panic and a goroutine dump.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-duty", "-rho", "1.5"},
		{"-duty", "-rho", "0"},
		{"-duty", "-sigma", "-1"},
		{"-duty", "-rho", "NaN"},
		{"-bounds", "-k", "4", "-rho", "0.3"},
		{"-bounds", "-k", "0"},
		{"-bounds", "-height", "1"},
		{"-rhostar", "-maxk", "0"},
		{"-ratio", "-k", "1"},
	} {
		var out, errOut bytes.Buffer
		code := func() (code int) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%v: panicked: %v", args, r)
				}
			}()
			return run(args, &out, &errOut)
		}()
		msg := errOut.String()
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.HasPrefix(msg, "wdccalc: ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
			t.Errorf("%v: stderr %q, want one \"wdccalc: …\" line", args, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
	}
}
