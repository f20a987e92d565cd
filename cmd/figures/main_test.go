//go:build !race

package main

import (
	"bytes"
	"os"
	"testing"

	"fabricgossip/internal/harness"
)

// TestQuickSeed1Pinned pins every paper artifact at reduced scale:
// `figures -exp all -quick -seed 1` must print testdata/quick-seed1.txt
// byte for byte. A deliberate change to a figure regenerates the file with
//
//	go run ./cmd/figures -exp all -quick -seed 1 > cmd/figures/testdata/quick-seed1.txt
//
// The run takes seconds plain and well over half a minute under the race
// detector, hence the build tag; CI runs it in a step without -race.
func TestQuickSeed1Pinned(t *testing.T) {
	want, err := os.ReadFile("testdata/quick-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := write(&got, harness.ExperimentIDs(), 1, true); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}
