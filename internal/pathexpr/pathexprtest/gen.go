// Package pathexprtest generates random path expressions for property
// tests of the packages that compile and step them.
package pathexprtest

import "math/rand"

// Expr returns a random path-expression source over the labels a, b, c
// and the wildcard, nesting concatenation, alternation and the three
// repetitions up to depth levels. Every result parses.
func Expr(r *rand.Rand, depth int) string {
	labels := []string{"a", "b", "c", "_"}
	if depth <= 0 || r.Intn(3) == 0 {
		return labels[r.Intn(len(labels))]
	}
	switch r.Intn(6) {
	case 0:
		return Expr(r, depth-1) + "." + Expr(r, depth-1)
	case 1:
		return "(" + Expr(r, depth-1) + "|" + Expr(r, depth-1) + ")"
	case 2:
		return "(" + Expr(r, depth-1) + ")*"
	case 3:
		return "(" + Expr(r, depth-1) + ")+"
	case 4:
		return "(" + Expr(r, depth-1) + ")?"
	default:
		return labels[r.Intn(len(labels))]
	}
}
