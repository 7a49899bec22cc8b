package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// runChaosCmd parses the chaos subcommand's flags.
func runChaosCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var specStr string
	fs.StringVar(&specStr, "spec", "",
		"seeded fault spec, e.g. seed=1,drop=0.25,dup=0.1,reorder=0.1,corrupt=0.05,allocfail=0.02,pooldeny=0.1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if specStr == "" {
		return usageErrf(fs, stderr, "-spec: a fault spec is required (e.g. -spec seed=1,drop=0.25)")
	}
	spec, err := faults.ParseSpec(specStr)
	if err != nil {
		return usageErrf(fs, stderr, "-spec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		return usageErrf(fs, stderr, "-spec: %v", err)
	}
	if !spec.Enabled() {
		return usageErrf(fs, stderr,
			"-spec: spec %q injects nothing (set a seed and at least one rate)", specStr)
	}
	return runChaos(spec, stdout, stderr)
}

// runChaos executes the fault-injection matrix and prints the recovery
// report; any recovery or conservation violation makes the exit status
// nonzero.
func runChaos(spec faults.Spec, stdout, stderr io.Writer) int {
	rep, err := experiments.RunChaos(experiments.ChaosConfig{Spec: spec})
	if err != nil {
		return failf(stderr, err)
	}
	fmt.Fprint(stdout, rep)
	if !rep.OK() {
		return 1
	}
	return 0
}
