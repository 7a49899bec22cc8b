package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/netsim"
)

// TestHostStatsMatchFmt: AppendHostStats writes exactly what
// fmt.Sprintf("nic=%+v genie=%+v") makes of drawn stats, every field
// drawn through reflection, so a field added to either struct and not
// to the appender fails here instead of silently leaving the digest.
func TestHostStatsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	draw := func(v any) {
		s := reflect.ValueOf(v).Elem()
		for i := range s.NumField() {
			f := s.Field(i)
			if f.Kind() != reflect.Uint64 {
				t.Fatalf("%s.%s is a %v; AppendHostStats writes uint64 fields", s.Type(), s.Type().Field(i).Name, f.Kind())
			}
			switch rng.IntN(4) {
			case 0:
				f.SetUint(0)
			case 1:
				f.SetUint(math.MaxUint64)
			default:
				f.SetUint(rng.Uint64() >> rng.IntN(64))
			}
		}
	}
	for range 200 {
		var nic netsim.Stats
		var g Stats
		draw(&nic)
		draw(&g)
		want := fmt.Sprintf("nic=%+v genie=%+v", nic, g)
		if got := string(AppendHostStats(nil, nic, g)); got != want {
			t.Fatalf("AppendHostStats:\n%s\nfmt:\n%s", got, want)
		}
	}
}
