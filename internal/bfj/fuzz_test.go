package bfj_test

import (
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/workloads"
)

// FuzzParse checks the parser against arbitrary input: Parse never
// panics, and a program it accepts formats to text that parses again
// and formats to the same text.  The seed corpus is the 19 evaluation
// workloads and the quickstart demo.
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 30s ./internal/bfj
func FuzzParse(f *testing.F) {
	for _, w := range workloads.All(workloads.DefaultScale()) {
		f.Add(w.Source)
	}
	f.Add(workloads.Quickstart().Source)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := bfj.Parse(src)
		if err != nil {
			return
		}
		text := bfj.FormatProgram(prog)
		again, err := bfj.Parse(text)
		if err != nil {
			t.Fatalf("formatted program does not parse: %v\n%s", err, text)
		}
		if text2 := bfj.FormatProgram(again); text2 != text {
			t.Fatalf("format not stable:\n--- first\n%s\n--- second\n%s", text, text2)
		}
	})
}
