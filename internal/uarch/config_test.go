package uarch_test

import (
	"reflect"
	"testing"

	"fpint/internal/fperr"
	"fpint/internal/uarch"
)

func TestParseConfig(t *testing.T) {
	cases := []struct {
		name string
		want uarch.Config
	}{
		{"4way", uarch.Config4Way()},
		{"8way", uarch.Config8Way()},
	}
	for _, tc := range cases {
		got, err := uarch.ParseConfig(tc.name)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseConfig(%q) = %q, %v; want %q", tc.name, got.Name, err, tc.want.Name)
		}
	}
	if names := uarch.ConfigNames(); !reflect.DeepEqual(names, []string{"4way", "8way"}) {
		t.Errorf("ConfigNames() = %v", names)
	}
	// Config.Name ("4-way") is the output spelling, not an input name.
	for _, bad := range []string{"", "16way", "4-way", "8WAY"} {
		if _, err := uarch.ParseConfig(bad); fperr.ClassOf(err) != fperr.ClassUsage {
			t.Errorf("ParseConfig(%q) error class = %v, want usage", bad, fperr.ClassOf(err))
		}
	}
}

// TestNewPipelineRingLimit pins the ROB ring's capacity: a config may hold
// at most 128 uncommitted instructions (MaxInFlight dispatched plus the
// 2·FetchWidth fetch buffer), and NewMachine refuses one that holds more.
// TestSchedulerLegality runs a config at exactly the limit.
func TestNewPipelineRingLimit(t *testing.T) {
	cfg := uarch.Config8Way()
	cfg.MaxInFlight = 128 - 2*cfg.FetchWidth
	uarch.NewMachine(cfg)
	cfg.MaxInFlight++
	defer func() {
		if recover() == nil {
			t.Errorf("NewMachine accepted %d in flight + %d fetch buffer > 128", cfg.MaxInFlight, 2*cfg.FetchWidth)
		}
	}()
	uarch.NewMachine(cfg)
}
