package codegen_test

import (
	"testing"

	"fpint/internal/codegen"
	"fpint/internal/fperr"
)

func TestParseScheme(t *testing.T) {
	cases := []struct {
		name string
		want codegen.Scheme
	}{
		{"none", codegen.SchemeNone},
		{"basic", codegen.SchemeBasic},
		{"advanced", codegen.SchemeAdvanced},
		{"balanced", codegen.SchemeBalanced},
		{"optimal", codegen.SchemeOptimal},
	}
	for _, tc := range cases {
		got, err := codegen.ParseScheme(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if names := codegen.SchemeNames(); len(names) != len(cases) {
		t.Errorf("SchemeNames() = %v, want the %d names above", names, len(cases))
	}
	for i, name := range codegen.SchemeNames() {
		if s, _ := codegen.ParseScheme(name); s != codegen.Scheme(i) {
			t.Errorf("SchemeNames()[%d] = %q parses to %v", i, name, s)
		}
	}
	// "conventional" is SchemeNone's output spelling, not an input name.
	for _, bad := range []string{"", "warp", "Advanced", "conventional"} {
		if _, err := codegen.ParseScheme(bad); fperr.ClassOf(err) != fperr.ClassUsage {
			t.Errorf("ParseScheme(%q) error class = %v, want usage", bad, fperr.ClassOf(err))
		}
	}
}
