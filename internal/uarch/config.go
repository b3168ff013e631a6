package uarch

import (
	"strings"

	"fpint/internal/fperr"
)

// Config holds the machine parameters of Table 1.
type Config struct {
	Name string

	FetchWidth  int
	DecodeWidth int // decode/rename width
	RetireWidth int
	IssueWidth  int // max ops issued per cycle across both subsystems

	IntWindow   int // integer issue-window entries
	FpWindow    int
	MaxInFlight int

	IntALUs   int
	FpALUs    int
	LdStPorts int

	IntPhysRegs int
	FpPhysRegs  int

	// Branch predictor.
	BpredCounters int
	BpredHistory  uint

	// Instruction cache.
	ICacheSize, ICacheWays, ICacheLine int
	ICacheHit, ICacheMissPenalty       int

	// Data cache.
	DCacheSize, DCacheWays, DCacheLine int
	DCacheHit, DCacheMissPenalty       int

	// FPaExtraLatency models the §6.6 hardware-cost discussion: if the FP
	// subsystem cannot support single-cycle integer operations, FPa
	// integer ops take 1+FPaExtraLatency cycles. 0 reproduces the paper's
	// headline assumption.
	FPaExtraLatency int
}

// Config4Way is the 4-way (2 int + 2 fp) machine of Table 1.
func Config4Way() Config {
	return Config{
		Name:        "4-way",
		FetchWidth:  4,
		DecodeWidth: 4,
		RetireWidth: 4,
		IssueWidth:  4,
		IntWindow:   16,
		FpWindow:    16,
		MaxInFlight: 32,
		IntALUs:     2,
		FpALUs:      2,
		LdStPorts:   1,
		IntPhysRegs: 48,
		FpPhysRegs:  48,

		BpredCounters: 32 * 1024,
		BpredHistory:  15,

		ICacheSize: 64 * 1024, ICacheWays: 2, ICacheLine: 128,
		ICacheHit: 1, ICacheMissPenalty: 6,

		DCacheSize: 32 * 1024, DCacheWays: 2, DCacheLine: 32,
		DCacheHit: 1, DCacheMissPenalty: 6,
	}
}

// Config8Way is the 8-way (4 int + 4 fp) machine of Table 1.
func Config8Way() Config {
	c := Config4Way()
	c.Name = "8-way"
	c.FetchWidth = 8
	c.DecodeWidth = 8
	c.RetireWidth = 8
	c.IssueWidth = 8
	c.IntWindow = 32
	c.FpWindow = 32
	c.MaxInFlight = 64
	c.IntALUs = 4
	c.FpALUs = 4
	c.LdStPorts = 2
	c.IntPhysRegs = 80
	c.FpPhysRegs = 80
	return c
}

// configs is the one input-name table for the Table 1 machines. Input
// names differ from Config.Name ("4-way"), the output spelling that run
// records and reports carry.
var configs = []struct {
	name  string
	build func() Config
}{
	{"4way", Config4Way},
	{"8way", Config8Way},
}

// ConfigNames lists the names ParseConfig accepts.
func ConfigNames() []string {
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.name
	}
	return names
}

// ParseConfig resolves a machine-configuration name from a flag or
// request; an unknown name is a usage error.
func ParseConfig(name string) (Config, error) {
	for _, c := range configs {
		if c.name == name {
			return c.build(), nil
		}
	}
	return Config{}, fperr.New(fperr.ClassUsage, "unknown config %q (want %s)", name, strings.Join(ConfigNames(), ", "))
}
