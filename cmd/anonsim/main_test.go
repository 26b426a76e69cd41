package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"anonnet/internal/job"
	"anonnet/internal/model"
)

// TestEveryModelRuns drives every registered communication model through
// the command: each must compute max on a small bidirectional ring, which
// every model can, and print the true value at every agent.
func TestEveryModelRuns(t *testing.T) {
	for _, name := range model.Names() {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-graph", "bidiring:6", "-kind", name, "-func", "max", "-rounds", "20"}, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			var want string
			for _, line := range strings.Split(out.String(), "\n") {
				if v, ok := strings.CutPrefix(line, "true value: "); ok {
					want = "final outputs after 20 rounds: [" + strings.TrimSpace(strings.Repeat(v+" ", 6)) + "]"
				}
			}
			if want == "" || !strings.Contains(out.String(), want+"\n") {
				t.Fatalf("want %q in:\n%s", want, out.String())
			}
		})
	}
}

// TestParseGraphSpecs covers every builder's -graph spelling, and bad
// values that must fail either here or at job.Compile.
func TestParseGraphSpecs(t *testing.T) {
	cases := []struct {
		in     string
		want   job.GraphSpec
		n      int
		static bool
	}{
		{"ring:5", job.GraphSpec{Builder: "ring", N: 5}, 5, true},
		{"bidiring:4", job.GraphSpec{Builder: "bidiring", N: 4}, 4, true},
		{"star:6", job.GraphSpec{Builder: "star", N: 6}, 6, true},
		{"path:3", job.GraphSpec{Builder: "path", N: 3}, 3, true},
		{"complete:4", job.GraphSpec{Builder: "complete", N: 4}, 4, true},
		{"hypercube:3", job.GraphSpec{Builder: "hypercube", D: 3}, 8, true},
		{"debruijn:2.3", job.GraphSpec{Builder: "debruijn", K: 2, D: 3}, 8, true},
		{"torus:2.3", job.GraphSpec{Builder: "torus", Rows: 2, Cols: 3}, 6, true},
		{"random:5", job.GraphSpec{Builder: "random", N: 5}, 5, true},
		{"randomsym:5", job.GraphSpec{Builder: "randomsym", N: 5}, 5, true},
		{"geometric:6", job.GraphSpec{Builder: "geometric", N: 6}, 6, true},
		{"splitring:6", job.GraphSpec{Builder: "splitring", N: 6}, 6, false},
		{"randomdyn:5", job.GraphSpec{Builder: "randomdyn", N: 5}, 5, false},
		{"pairwise:7", job.GraphSpec{Builder: "pairwise", N: 7}, 7, false},
	}
	for _, tc := range cases {
		g, err := parseGraph(tc.in)
		if err != nil || g != tc.want {
			t.Errorf("parseGraph(%q) = %+v, %v; want %+v", tc.in, g, err, tc.want)
			continue
		}
		c, err := job.Compile(job.Spec{Graph: g, Kind: "od", Function: "max"})
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if c.N != tc.n || c.Setting.Static != tc.static {
			t.Errorf("%s: n=%d static=%t, want n=%d static=%t", tc.in, c.N, c.Setting.Static, tc.n, tc.static)
		}
	}
	for _, bad := range []string{"nope:3", "ring:x", "ring:0", "torus:5", "debruijn:2"} {
		g, err := parseGraph(bad)
		if err == nil {
			_, err = job.Compile(job.Spec{Graph: g, Kind: "od", Function: "max"})
		}
		if err == nil {
			t.Errorf("-graph %s accepted", bad)
		}
	}
}

// TestParseInputs covers the comma-separated -values and -leaders lists.
func TestParseInputs(t *testing.T) {
	if v, err := parseList("0, 2,4", strconv.Atoi); err != nil || len(v) != 3 || v[2] != 4 {
		t.Fatalf("parseList = %v, %v", v, err)
	}
	if v, err := parseList("", strconv.Atoi); err != nil || v != nil {
		t.Fatalf("empty list = %v, %v", v, err)
	}
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-values", "1,x,3"},
		{"-graph", "ring:3", "-values", "1,2"},
		{"-leaders", "0,a"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected specs printed output:\n%s", out.String())
	}
	if err := run([]string{"-graph", "ring:3", "-values", "1, 2.5,3", "-rounds", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "true value: 2.1666666666666665\n") {
		t.Errorf("values 1, 2.5, 3 not used:\n%s", out.String())
	}
}
