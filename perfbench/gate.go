package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// digests.json records the expected output digest of each workload for
// the seeds it has been run at: {"<workload>": {"<seed>": "<sha256>"}}.
//
//go:embed digests.json
var digestsJSON []byte

// expectedDigests parses the recorded digests.
func expectedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// gate is the output-digest check every iteration passes through. With a
// recorded digest for the seed, every iteration must match it; without
// one, the first iteration's digest becomes the expectation and every
// later iteration (the traced one included) must reproduce it.
type gate struct {
	want   string
	source string // "recorded" or "first iteration"
}

func newGate(workload string, seed int64) *gate {
	g := &gate{source: "first iteration"}
	d, err := expectedDigests()
	if err != nil {
		panic(err) // the file is embedded at build time; only a bad edit breaks it
	}
	if want, ok := d[workload][strconv.FormatInt(seed, 10)]; ok {
		g.want, g.source = want, "recorded"
	}
	return g
}

// digestOf hashes an iteration's canonical output text.
func digestOf(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// check compares one iteration's output text against the expectation.
func (g *gate) check(text string) error {
	got := digestOf(text)
	if g.want == "" {
		g.want = got
		return nil
	}
	if got != g.want {
		return fmt.Errorf("output digest %s != expected %s (%s); outputs:\n%s", got, g.want, g.source, text)
	}
	return nil
}
