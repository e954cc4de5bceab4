// Command awgen is the AutoWatchdog generator CLI (§4): it analyzes a Go
// package, prints the program-logic-reduction report (Figure 2), and
// optionally emits the generated checkers file plus hook-instrumented
// sources (Figure 3).
//
// Usage:
//
//	awgen -pkg ./internal/coord                      # report only
//	awgen -pkg ./internal/coord -json                # machine-readable report
//	awgen -pkg ./internal/coord -out /tmp/coordwd    # + generate & instrument
//
// In report-only mode awgen exits non-zero when no long-running regions are
// found, so CI can catch analyses that silently matched nothing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gowatchdog/internal/autowatchdog"
)

func main() {
	var (
		pkgDir   = flag.String("pkg", "", "package directory to analyze (required)")
		outDir   = flag.String("out", "", "output directory for generated + instrumented files")
		entries  = flag.String("entries", "", "comma-separated regexps forcing region roots")
		depth    = flag.Int("depth", 5, "max call-chain depth")
		quiet    = flag.Bool("quiet", false, "suppress the per-region report")
		jsonMode = flag.Bool("json", false, "emit the analysis report as JSON")
	)
	flag.Parse()
	if *pkgDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := autowatchdog.Config{
		PackageDir:    *pkgDir,
		OutDir:        *outDir,
		MaxChainDepth: *depth,
	}
	if *entries != "" {
		cfg.EntryPatterns = strings.Split(*entries, ",")
	}
	a, err := autowatchdog.Analyze(cfg)
	if err != nil {
		log.Fatalf("awgen: %v", err)
	}
	switch {
	case *jsonMode:
		data, err := a.ReportJSON()
		if err != nil {
			log.Fatalf("awgen: json: %v", err)
		}
		fmt.Printf("%s\n", data)
	case !*quiet:
		fmt.Print(a.Summary())
	}
	if *outDir == "" {
		// Report-only invocations are used as a CI gate: an analysis that
		// found nothing to monitor is almost always a misconfigured -pkg or
		// -entries, not a healthy package.
		if len(a.Regions) == 0 {
			fmt.Fprintf(os.Stderr, "awgen: no long-running regions found in %s\n", *pkgDir)
			os.Exit(1)
		}
		return
	}
	genPath, err := a.Generate()
	if err != nil {
		log.Fatalf("awgen: generate: %v", err)
	}
	written, err := a.Instrument("")
	if err != nil {
		log.Fatalf("awgen: instrument: %v", err)
	}
	fmt.Printf("\ngenerated %s\ninstrumented %d files into %s\n", genPath, len(written), *outDir)
}
