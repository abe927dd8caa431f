package core

import (
	"strings"
	"testing"

	"hog/internal/grid"
	"hog/internal/sim"
)

// TestValidateTimeouts rejects dead timeouts below the heartbeat interval —
// a master would declare healthy workers dead between two of their beats —
// and accepts the boundary, the defaults, and every preset.
func TestValidateTimeouts(t *testing.T) {
	base := func() Config { return HOGConfig(10, grid.ChurnNone, 1) }
	cases := []struct {
		name string
		edit func(*Config)
		want string // "" accepts
	}{
		{"preset", func(*Config) {}, ""},
		{"default timeouts", func(c *Config) { c.HDFS.DeadTimeout, c.MapRed.TrackerTimeout = 0, 0 }, ""},
		{"timeouts equal to the beat", func(c *Config) {
			c.HDFS.DeadTimeout, c.MapRed.TrackerTimeout = 3*sim.Second, 3*sim.Second
		}, ""},
		{"dead timeout below the beat", func(c *Config) { c.HDFS.DeadTimeout = 2 * sim.Second }, "HDFS dead timeout"},
		{"tracker timeout below the beat", func(c *Config) { c.MapRed.TrackerTimeout = 2 * sim.Second }, "tracker timeout"},
		{"timeout below a slowed beat", func(c *Config) { c.MapRed.HeartbeatInterval = 40 * sim.Second }, "below the heartbeat interval 40.000s"},
		{"timeout above a quickened beat", func(c *Config) {
			c.MapRed.HeartbeatInterval = sim.Second
			c.HDFS.DeadTimeout = 2 * sim.Second
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.edit(&cfg)
			err := Validate(cfg)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	for name, cfg := range map[string]Config{
		"large":     LargeGridConfig(100, grid.ChurnStable, 1),
		"mega":      MegaGridConfig(100, grid.ChurnStable, 1),
		"giga":      GigaGridConfig(100, grid.ChurnStable, 1),
		"dedicated": DedicatedClusterConfig(1),
	} {
		if err := Validate(cfg); err != nil {
			t.Errorf("%s preset rejected: %v", name, err)
		}
	}
}
