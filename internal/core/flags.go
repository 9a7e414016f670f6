package core

// One configuration surface for every tool that builds a Cloud: a JSON
// scenario file, an optional seed, and repeatable path=value overrides
// of that same scenario document. The scenario schema (ConfigFile) is
// the single source of knob names, and LoadConfig is the single place
// they are validated.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Loader loads a Config with path=value overrides (the -set syntax)
// applied in order, each decoded alone first so an error names its path.
type Loader func(overrides ...string) (Config, error)

// BindConfigFlags registers -config, -seed and the repeatable -set on fs
// and returns the loader to call after fs.Parse. Precedence, lowest
// first: DefaultConfig, the -config file, -seed (applied when given
// explicitly; with no -config it defaults to 1), then each -set in
// command-line order.
//
// A -set path is a dotted JSON path in the ConfigFile schema
// (plane.shards=4, faults.rate=0.1, reconcile={},
// director.fastProvisioning=false). The value is parsed as JSON when it
// is valid JSON and taken as a string otherwise.
//
// The loader's overrides are further path=value pairs in the same
// syntax, applied after every -set: a Grid loads each point this way.
func BindConfigFlags(fs *flag.FlagSet) Loader {
	path := fs.String("config", "", "JSON scenario file (see scenarios/)")
	seed := fs.Int64("seed", 1, "master random seed (overrides the scenario's)")
	var sets setFlag
	fs.Var(&sets, "set", "path=value override of a scenario field, e.g. plane.shards=4, faults.rate=0.1 or 'reconcile={}' (repeatable; value is JSON, else a string)")
	return func(overrides ...string) (Config, error) {
		doc := map[string]any{}
		if *path != "" {
			src, err := os.ReadFile(*path)
			if err != nil {
				return Config{}, err
			}
			if doc, err = decodeOver(bytes.NewReader(src), doc); err != nil {
				return Config{}, fmt.Errorf("core: parse scenario %s: %w", *path, err)
			}
			if doc == nil { // the file held JSON null
				doc = map[string]any{}
			}
		}
		seedSet := false
		fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if seedSet || *path == "" {
			doc["seed"] = *seed
		}
		return sets.load(doc, overrides)
	}
}

// DefaultLoader is the loader over DefaultConfig(seed): what
// BindConfigFlags gives with no -config and no -set.
func DefaultLoader(seed int64) Loader {
	return func(overrides ...string) (Config, error) {
		return setFlag(nil).load(map[string]any{"seed": seed}, overrides)
	}
}

// load merges the settings, then the overrides parsed like -set, into
// doc and decodes it through LoadConfig.
func (f setFlag) load(doc map[string]any, overrides []string) (Config, error) {
	all := append(setFlag(nil), f...)
	for _, o := range overrides {
		if err := all.Set(o); err != nil {
			return Config{}, err
		}
	}
	for _, s := range all {
		if err := s.merge(doc); err != nil {
			return Config{}, err
		}
	}
	src, err := json.Marshal(doc)
	if err != nil {
		return Config{}, err
	}
	return LoadConfig(bytes.NewReader(src))
}

// setting is one parsed -set override.
type setting struct {
	arg  string   // path=value as given
	keys []string // the dotted path, split
	val  any      // decoded JSON value (numbers as json.Number) or string
}

// merge writes the override into doc, creating intermediate objects.
func (s setting) merge(doc map[string]any) error {
	obj := doc
	for i, k := range s.keys[:len(s.keys)-1] {
		switch next := obj[k].(type) {
		case map[string]any:
			obj = next
		case nil:
			child := map[string]any{}
			obj[k] = child
			obj = child
		default:
			return fmt.Errorf("-set %s: %s is not an object", s.arg, strings.Join(s.keys[:i+1], "."))
		}
	}
	obj[s.keys[len(s.keys)-1]] = s.val
	return nil
}

// setFlag accumulates -set overrides in command-line order.
type setFlag []setting

func (f *setFlag) String() string {
	args := make([]string, len(*f))
	for i, s := range *f {
		args[i] = s.arg
	}
	return strings.Join(args, " ")
}

// Set parses one path=value and decodes it alone against the scenario
// schema, so a misspelled path or mistyped value is reported against
// the -set that carries it.
func (f *setFlag) Set(arg string) error {
	path, v, ok := strings.Cut(arg, "=")
	if !ok || path == "" {
		return fmt.Errorf("want path=value, got %q", arg)
	}
	keys := strings.Split(path, ".")
	for _, k := range keys {
		if k == "" {
			return fmt.Errorf("%s: empty path segment", path)
		}
	}
	var val any = v
	if json.Valid([]byte(v)) {
		dec := json.NewDecoder(strings.NewReader(v))
		dec.UseNumber()
		if err := dec.Decode(&val); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	s := setting{arg: arg, keys: keys, val: val}
	alone := map[string]any{}
	_ = s.merge(alone) // an empty document has no non-object on the path
	src, err := json.Marshal(alone)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if _, err := decodeConfigFile(bytes.NewReader(src)); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	*f = append(*f, s)
	return nil
}
