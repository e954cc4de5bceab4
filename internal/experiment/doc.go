// Package experiment holds the paper's evaluation as tests, one per
// experiment of EXPERIMENTS.md that a tier-1 run can reproduce. It has no
// harness of its own: each test scores through the package that owns the
// mechanism — the campaign engine's detector arms (E1, E2, E10), coord
// (E5), kvs (E7), dfs (E8), the watchdog driver's validators (E9) and
// autowatchdog (E4).
package experiment
