// autogen: run AutoWatchdog's program logic reduction (§4, Figures 2–3)
// against the coord package's snapshot code and show the three artifacts:
// the reduction report, the generated checker source, and a hook-
// instrumented function.
//
// Run it from the module root:
//
//	go run ./examples/autogen
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"gowatchdog/internal/autowatchdog"
)

func main() {
	out, err := os.MkdirTemp("", "autogen-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(out)

	a, err := autowatchdog.Analyze(autowatchdog.Config{
		PackageDir: filepath.Join("internal", "coord"),
		OutDir:     out,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("================ reduction report (Figure 2) ================")
	fmt.Print(a.Summary())

	genPath, err := a.Generate()
	if err != nil {
		log.Fatal(err)
	}
	gen, err := os.ReadFile(genPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n================ generated checkers (Figure 3) ================")
	fmt.Println(excerpt(string(gen), 60))

	if _, err := a.Instrument(""); err != nil {
		log.Fatal(err)
	}
	inst, err := os.ReadFile(filepath.Join(out, "snapshot.go"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n========== instrumented SerializeSnapshot (hook inserted) ==========")
	fmt.Println(functionExcerpt(string(inst), "func (t *DataTree) SerializeSnapshot"))
}

// excerpt returns the first n lines.
func excerpt(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = append(lines[:n], "... (truncated)")
	}
	return strings.Join(lines, "\n")
}

// functionExcerpt returns one function's source.
func functionExcerpt(src, decl string) string {
	idx := strings.Index(src, decl)
	if idx < 0 {
		return "(function not found)"
	}
	rest := src[idx:]
	end := strings.Index(rest, "\n}")
	if end < 0 {
		return rest
	}
	return rest[:end+2]
}
