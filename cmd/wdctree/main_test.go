package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestPrintBackbone(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-print-backbone"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "19 routers") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestHeights(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-heights", "-hosts", "60"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "dsct") || !strings.Contains(out.String(), "nice") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestBuildEachKind(t *testing.T) {
	for _, kind := range []string{"dsct", "nice", "flat", "flatblind"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-build", kind, "-hosts", "50"}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", kind, code, errOut.String())
		}
		if !strings.Contains(out.String(), "layers") {
			t.Fatalf("%s: unexpected output:\n%s", kind, out.String())
		}
	}
}

func TestBadUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no mode: exit %d", code)
	}
	if code := run([]string{"-build", "mesh"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown kind: exit %d", code)
	}
}

// TestBadFlagValuesExitTwo: a host count no network can take, a cluster
// parameter below 2 or a flat fanout below 1 exits 2 with one "wdctree: …"
// line — instead of a panic in the topology builder or the height bound,
// a silent K = 3 tree for -k 0, or exit 1 for the rest.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-build", "dsct", "-hosts", "-5"},
		{"-build", "flat", "-hosts", "0"},
		{"-heights", "-hosts", "0"},
		{"-heights", "-k", "0"},
		{"-build", "dsct", "-k", "0"},
		{"-build", "dsct", "-k", "1"},
		{"-build", "flat", "-fanout", "0"},
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
		if !strings.HasPrefix(msg, "wdctree: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one \"wdctree: …\" line", args, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
	}
}
