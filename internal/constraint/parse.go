package constraint

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse converts one SQL-ish constraint expression into a Constraint.
// Accepted forms (whitespace-insensitive, aggregate names case-insensitive):
//
//	SUM(TOTALPOP) >= 20000
//	MIN(POP16UP) <= 3000
//	AVG(EMPLOYED) in [1500, 3500]
//	AVG(EMPLOYED) between 1500 and 3500
//	1500 <= AVG(EMPLOYED) <= 3500
//	COUNT(*) <= 4
//	COUNT >= 2
//
// Suffix multipliers k/K (1e3) and m/M (1e6) are accepted on numbers, so
// "SUM(TOTALPOP) >= 20k" works.
func Parse(expr string) (Constraint, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return Constraint{}, fmt.Errorf("constraint: empty expression")
	}

	// Chained form: <num> <= AGG(attr) <= <num>.
	if c, ok, err := parseChained(s); ok || err != nil {
		return c, err
	}

	agg, attr, rest, err := parseAggRef(s)
	if err != nil {
		return Constraint{}, err
	}
	rest = strings.TrimSpace(rest)
	lower := lowerASCII(rest)

	switch {
	case strings.HasPrefix(rest, ">="):
		v, err := parseNumber(rest[2:])
		if err != nil {
			return Constraint{}, fmt.Errorf("constraint: %q: %v", expr, err)
		}
		return AtLeast(agg, attr, v), nil
	case strings.HasPrefix(rest, "<="):
		v, err := parseNumber(rest[2:])
		if err != nil {
			return Constraint{}, fmt.Errorf("constraint: %q: %v", expr, err)
		}
		return AtMost(agg, attr, v), nil
	case strings.HasPrefix(lower, "in"):
		return parseRange(agg, attr, rest[2:], expr)
	case strings.HasPrefix(lower, "between"):
		return parseBetween(agg, attr, rest[len("between"):], expr)
	default:
		return Constraint{}, fmt.Errorf("constraint: %q: expected >=, <=, 'in [l,u]' or 'between l and u' after aggregate", expr)
	}
}

// ParseSet parses a semicolon- or newline-separated list of constraint
// expressions and validates the resulting set.
func ParseSet(exprs string) (Set, error) {
	fields := strings.FieldsFunc(exprs, func(r rune) bool { return r == ';' || r == '\n' })
	var set Set
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		c, err := Parse(f)
		if err != nil {
			return nil, err
		}
		set = append(set, c)
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// parseAggRef consumes "AGG(attr)" or bare "COUNT" from the front of s and
// returns the remainder.
func parseAggRef(s string) (Aggregate, string, string, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		// Bare COUNT without parentheses.
		for i := 0; i < len(s); i++ {
			if s[i] == ' ' || s[i] == '<' || s[i] == '>' {
				name := s[:i]
				agg, err := ParseAggregate(name)
				if err != nil {
					return 0, "", "", err
				}
				if agg != Count {
					return 0, "", "", fmt.Errorf("constraint: aggregate %s requires an attribute, e.g. %s(POP)", agg, agg)
				}
				return Count, "", s[i:], nil
			}
		}
		return 0, "", "", fmt.Errorf("constraint: cannot parse aggregate reference in %q", s)
	}
	agg, err := ParseAggregate(s[:open])
	if err != nil {
		return 0, "", "", err
	}
	close := strings.IndexByte(s[open:], ')')
	if close < 0 {
		return 0, "", "", fmt.Errorf("constraint: missing ')' in %q", s)
	}
	attr := strings.TrimSpace(s[open+1 : open+close])
	if attr == "*" {
		attr = ""
	}
	if attr == "" && agg != Count {
		return 0, "", "", fmt.Errorf("constraint: aggregate %s requires an attribute", agg)
	}
	if agg == Count {
		attr = "" // COUNT ignores its attribute; normalize.
	}
	return agg, attr, s[open+close+1:], nil
}

func parseChained(s string) (Constraint, bool, error) {
	first := strings.Index(s, "<=")
	if first <= 0 {
		return Constraint{}, false, nil
	}
	head := strings.TrimSpace(s[:first])
	if _, err := parseNumber(head); err != nil {
		return Constraint{}, false, nil // not the chained form
	}
	rest := s[first+2:]
	second := strings.Index(rest, "<=")
	if second < 0 {
		return Constraint{}, false, nil
	}
	lo, err := parseNumber(head)
	if err != nil {
		return Constraint{}, true, err
	}
	agg, attr, mid, err := parseAggRef(strings.TrimSpace(rest[:second]))
	if err != nil {
		return Constraint{}, true, err
	}
	if strings.TrimSpace(mid) != "" {
		return Constraint{}, true, fmt.Errorf("constraint: unexpected %q in chained comparison", mid)
	}
	hi, err := parseNumber(rest[second+2:])
	if err != nil {
		return Constraint{}, true, err
	}
	return New(agg, attr, lo, hi), true, nil
}

func parseRange(agg Aggregate, attr, rest, expr string) (Constraint, error) {
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
		return Constraint{}, fmt.Errorf("constraint: %q: expected range like [l, u]", expr)
	}
	body := rest[1 : len(rest)-1]
	parts := strings.Split(body, ",")
	if len(parts) != 2 {
		return Constraint{}, fmt.Errorf("constraint: %q: range needs two comma-separated bounds", expr)
	}
	lo, err := parseNumber(parts[0])
	if err != nil {
		return Constraint{}, fmt.Errorf("constraint: %q: %v", expr, err)
	}
	hi, err := parseNumber(parts[1])
	if err != nil {
		return Constraint{}, fmt.Errorf("constraint: %q: %v", expr, err)
	}
	return New(agg, attr, lo, hi), nil
}

func parseBetween(agg Aggregate, attr, rest, expr string) (Constraint, error) {
	andIdx := strings.Index(lowerASCII(rest), " and ")
	if andIdx < 0 {
		return Constraint{}, fmt.Errorf("constraint: %q: expected 'between l and u'", expr)
	}
	lo, err := parseNumber(rest[:andIdx])
	if err != nil {
		return Constraint{}, fmt.Errorf("constraint: %q: %v", expr, err)
	}
	hi, err := parseNumber(rest[andIdx+5:])
	if err != nil {
		return Constraint{}, fmt.Errorf("constraint: %q: %v", expr, err)
	}
	return New(agg, attr, lo, hi), nil
}

// lowerASCII lowercases ASCII letters only, so every byte offset into the
// result is an offset into s. strings.ToLower rewrites invalid UTF-8 and
// some non-ASCII letters into encodings of a different length, so an index
// found in its result can fall outside s.
func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// parseNumber parses a float with optional k/K (1e3) or m/M (1e6) suffix,
// plus the spellings inf, +inf, -inf.
func parseNumber(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("missing number")
	}
	switch strings.ToLower(s) {
	case "inf", "+inf", "infinity":
		return math.Inf(1), nil
	case "-inf", "-infinity":
		return math.Inf(-1), nil
	}
	mult := 1.0
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1e3
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1e6
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v * mult, nil
}
