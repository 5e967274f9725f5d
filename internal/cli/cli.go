// Package cli holds the one boot path of the NTCS deployment binaries:
// the topology file (the site configuration file of §3.4 that, on the
// 1986 testbed, every machine kept), the attach of one of its entries,
// and the serve-and-drain tail every booted process runs.
package cli

import (
	"fmt"
	"strings"

	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/tcpnet"
)

// Binding is one "network=hostport" attachment.
type Binding struct {
	Network string
	Addr    string
}

// ParseBindings parses "a=127.0.0.1:4001,b=127.0.0.1:4002". The address
// part may be empty ("a=") for an ephemeral port.
func ParseBindings(spec string) ([]Binding, error) {
	if spec == "" {
		return nil, fmt.Errorf("cli: empty binding list")
	}
	var out []Binding
	for _, part := range strings.Split(spec, ",") {
		network, address, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || network == "" {
			return nil, fmt.Errorf("cli: binding %q is not network=address", part)
		}
		out = append(out, Binding{Network: network, Addr: address})
	}
	return out, nil
}

// OpenNetworks creates one open TCP IPCS per binding and returns the
// networks with their endpoint hints.
func OpenNetworks(bindings []Binding) ([]ipcs.Network, map[string]string) {
	nets := make([]ipcs.Network, 0, len(bindings))
	hints := make(map[string]string, len(bindings))
	seen := make(map[string]bool, len(bindings))
	for _, b := range bindings {
		if !seen[b.Network] {
			seen[b.Network] = true
			nets = append(nets, tcpnet.NewOpen(b.Network))
		}
		hints[b.Network] = b.Addr
	}
	return nets, hints
}
