package codec

import (
	"fmt"
	"sort"
	"sync"
)

// Factory builds one codec instance. Factories validate their Params and
// return an error for unusable configurations (invalid channel, a mode
// the mechanism cannot pin, ...).
type Factory func(Params) (Codec, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register installs a backend under name. Backends register from init, so
// importing the package is enough to serve the full set; registering the
// same name twice panics — that is a wiring bug, not a runtime condition.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("codec: Register needs a name and a factory")
	}
	if _, dup := registry[name]; dup {
		panic("codec: duplicate Register of " + name)
	}
	registry[name] = f
}

// New builds the named codec. Unknown names wrap ErrUnknownCodec and list
// the registered backends; every backend needs a valid protected channel.
func New(name string, p Params) (Codec, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownCodec, name, Names())
	}
	if !p.Channel.Valid() {
		return nil, fmt.Errorf("codec: %s needs a protected channel, got %d", name, int(p.Channel))
	}
	return f(p)
}

// Known reports whether name has a registered backend.
func Known(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names lists the registered backends, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
