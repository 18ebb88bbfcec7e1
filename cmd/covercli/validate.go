package main

import (
	"fmt"
	"strings"

	"streamcover/client"
	"streamcover/internal/catalog"
)

// Valid flag vocabularies outside the solve request. Unknown values are
// rejected up front with a usage line instead of failing only after
// generating or loading the instance.
var (
	validGens   = []string{"planted", "uniform", "zipf", "clustered"}
	validCodecs = []string{"scb2", "scb1", "text"}
)

// validateChoice checks one enum-valued flag, returning a usage-style
// error listing the valid choices.
func validateChoice(flagName, val string, valid []string) error {
	for _, v := range valid {
		if val == v {
			return nil
		}
	}
	return fmt.Errorf("unknown -%s %q (valid: %s)", flagName, val, strings.Join(valid, ", "))
}

// validateFlags rejects unknown -gen/-to values and returns the solve
// request the catalog normalizes from -algo, -alpha, -eps, -order and
// -seed, or the catalog's error. gen is only validated when it will be
// used (no -in file), and -to only when -convert is in play.
func validateFlags(req client.SolveRequest, gen, in, convert, to string) (client.SolveRequest, error) {
	if in == "" {
		if err := validateChoice("gen", gen, validGens); err != nil {
			return req, err
		}
	}
	if convert != "" {
		if err := validateChoice("to", to, validCodecs); err != nil {
			return req, err
		}
	}
	return catalog.Normalize(req)
}
