package main

// pinnedDigests are the run digests of the benchmark-size workloads for
// seed 1 (the default) and seed 2 (a second seed, so a check never rests
// on the default alone). A run with a pinned seed whose digest differs
// fails: every simulated result of its first pass counts as a failed op.
// A change that alters simulated results on purpose updates these pins.
var pinnedDigests = map[string]map[uint64]string{
	"paper-pairwise":        {1: "198a7d15b6484640", 2: "de46af7bb41dd5d0"},
	"fileserver-closedloop": {1: "f5b1f8a633d041f6", 2: "105d076423c07da3"},
	"storage-read":          {1: "20c07e5c21f80e57", 2: "834026a8806852f1"},
	"storage-write":         {1: "9c6140daa8f80d16", 2: "2c1bc1b3debabb8b"},
}
