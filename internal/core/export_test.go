package core

import "ntcs/internal/addr"

// NameServerReplicas returns the peer set a name server module propagates
// its writes to.
func (m *Module) NameServerReplicas() []addr.UAdd { return m.server.Replicas() }
