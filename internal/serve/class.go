package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// Class is the per-request service class — the product tier a request buys
// into. It selects the execution pipeline, the queue the request waits in,
// its share of dispatch slots, and what overload does to it:
//
//   - ClassGuaranteed: the full reliable pipeline (reliable stage +
//     qualifier + CNN), the paper's reliability guarantee. Highest dispatch
//     weight; overload sheds with ErrQueueFull so latency stays bounded.
//   - ClassFast: the batched-CNN-only pipeline — no reliable execution, no
//     qualifier, so safety-critical classes come back unqualified
//     (rejected). Sheds under overload like guaranteed.
//   - ClassBudget: the full reliable pipeline at the lowest dispatch
//     weight, with degradation instead of shedding: when the budget queue
//     is full the request is re-admitted into the fast (CNN-only) pipeline
//     and marked degraded rather than rejected.
//
// The zero value is ClassGuaranteed, so class-unaware callers keep the
// full-pipeline semantics they had before classes existed.
type Class uint8

const (
	// ClassGuaranteed is the reliability-guaranteed tier (full pipeline).
	ClassGuaranteed Class = iota
	// ClassFast is the latency tier (batched CNN only).
	ClassFast
	// ClassBudget is the degradable tier (full pipeline until overload).
	ClassBudget
	// NumClasses is the number of service classes.
	NumClasses = 3
)

// Classes lists every service class in priority order (the order Stats and
// metrics report them).
var Classes = [NumClasses]Class{ClassGuaranteed, ClassFast, ClassBudget}

// String implements fmt.Stringer; the names are the wire values of the
// X-Hybridnet-Class header and the Prometheus class label.
func (c Class) String() string {
	switch c {
	case ClassGuaranteed:
		return "guaranteed"
	case ClassFast:
		return "fast"
	case ClassBudget:
		return "budget"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ParseClass parses a wire-format class name ("guaranteed", "fast",
// "budget").
func ParseClass(s string) (Class, error) {
	switch s {
	case "guaranteed":
		return ClassGuaranteed, nil
	case "fast":
		return ClassFast, nil
	case "budget":
		return ClassBudget, nil
	default:
		return ClassGuaranteed, fmt.Errorf("serve: unknown service class %q (want guaranteed|fast|budget)", s)
	}
}

// Valid reports whether c is one of the defined classes.
func (c Class) Valid() bool { return c < NumClasses }

// ParseClassInts parses a per-class integer spec like
// "guaranteed=64,fast=128,budget=32" (any subset of classes, in any order;
// empty input is the zero vector). Unset classes stay zero, which Config
// treats as "inherit the default". It backs the daemons' -class-queues
// flag.
func ParseClassInts(s string) ([NumClasses]int, error) {
	return parseClassSpec(s, strconv.Atoi)
}

// ParseClassFloats parses a per-class float spec like
// "guaranteed=0.2,fast=0.5,budget=0.3" — the loadgen -class-mix format.
// Unset classes stay zero.
func ParseClassFloats(s string) ([NumClasses]float64, error) {
	return parseClassSpec(s, func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// parseClassSpec parses "class=value,…" with one value parser.
func parseClassSpec[T any](s string, parse func(string) (T, error)) ([NumClasses]T, error) {
	var out [NumClasses]T
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return out, fmt.Errorf("serve: class spec %q is not name=value", part)
		}
		c, err := ParseClass(strings.TrimSpace(name))
		if err != nil {
			return out, err
		}
		out[c], err = parse(strings.TrimSpace(val))
		if err != nil {
			return out, fmt.Errorf("serve: class spec %q: %v", part, err)
		}
	}
	return out, nil
}
