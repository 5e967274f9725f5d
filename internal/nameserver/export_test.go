package nameserver

// MaxHandlers exposes the handler bound to the external tests.
const MaxHandlers = maxHandlers
