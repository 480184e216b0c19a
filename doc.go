// Package tmesh is the module root of a complete Go implementation of
// "Efficient Group Rekeying Using Application-Layer Multicast" (Zhang,
// Lam, Liu; IEEE ICDCS 2005).
//
// The implementation lives under internal/ (one package per subsystem;
// see DESIGN.md for the inventory), the experiment and soak driver
// under cmd/rekeysim, runnable examples under examples/, and the repo
// benchmark under bench/. Start with README.md.
package tmesh
