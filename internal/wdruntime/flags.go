package wdruntime

import (
	"flag"
	"os"
	"strings"
)

// BindFlags registers the canonical -wd-interval/-wd-timeout/-wd-breaker/
// -wd-damp/-wd-hang-budget/-obs-addr/-journal/-wd-rules/-sd-notify/-episodes
// flags plus the mesh flag set (-wd-mesh-addr/-wd-peers/-wd-mesh-interval/
// -wd-quorum) on fs, each bound straight into a field of the returned Config.
// Flag defaults are New's defaults, except -sd-notify (on) and -episodes
// ($WDSUPER_EPISODES), which only a supervised daemon wants. Every daemon
// binds the same names, defaults, and help text, so `kvsd -h`,
// `dfsd -h`, and `coordd -h` describe one uniform watchdog surface. Call
// fs.Parse (or flag.Parse for the command line), set the fields no flag
// reaches (Factory, Registry, Recovery), then pass the Config to New with
// FromConfig.
func BindFlags(fs *flag.FlagSet) *Config {
	cfg := defaults()
	fs.DurationVar(&cfg.Interval, "wd-interval", cfg.Interval, "watchdog check interval")
	fs.DurationVar(&cfg.Timeout, "wd-timeout", cfg.Timeout, "watchdog liveness timeout")
	fs.IntVar(&cfg.Breaker.Threshold, "wd-breaker", cfg.Breaker.Threshold, "trip a checker's circuit breaker after this many consecutive failures (0 disables)")
	fs.DurationVar(&cfg.DampWindow, "wd-damp", cfg.DampWindow, "suppress duplicate watchdog alarms within this window (0 disables)")
	fs.IntVar(&cfg.HangBudget, "wd-hang-budget", cfg.HangBudget, "max leaked hung checker goroutines before checks degrade to skips (0 = unlimited)")
	fs.StringVar(&cfg.ObsAddr, "obs-addr", cfg.ObsAddr, "observability listen address (/metrics, /healthz, /watchdog, pprof)")
	fs.StringVar(&cfg.JournalPath, "journal", cfg.JournalPath, "file to stream the detection journal to as JSONL (wdstat renders it)")
	fs.StringVar(&cfg.CEPRulesFile, "wd-rules", cfg.CEPRulesFile, "JSON temporal-rule file for the wdcep engine; non-empty enables rule evaluation over the detection stream")
	fs.BoolVar(&cfg.SdNotify, "sd-notify", true, "feed the supervisor's watchdog (NOTIFY_SOCKET) while the intrinsic verdict is healthy; no-op when unsupervised")
	fs.StringVar(&cfg.EpisodePath, "episodes", os.Getenv("WDSUPER_EPISODES"), "outage-episode ledger (JSONL) to surface on /watchdog; wdsuper exports it as WDSUPER_EPISODES")
	fs.StringVar(&cfg.MeshAddr, "wd-mesh-addr", cfg.MeshAddr, "mesh identity and listen address for the cluster health plane (required with -wd-peers)")
	fs.Func("wd-peers", "comma-separated peer mesh addresses; non-empty joins the cluster health plane", func(s string) error {
		cfg.MeshPeers = nil
		for _, p := range strings.Split(s, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.MeshPeers = append(cfg.MeshPeers, p)
			}
		}
		return nil
	})
	fs.DurationVar(&cfg.MeshInterval, "wd-mesh-interval", cfg.MeshInterval, "mesh gossip interval")
	fs.IntVar(&cfg.MeshQuorum, "wd-quorum", cfg.MeshQuorum, "observers that must corroborate a suspicion before it becomes a cluster verdict")
	return &cfg
}
