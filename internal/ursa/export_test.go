package ursa

// The search server's caps, for the backpressure tests.
const (
	MaxSearches = maxSearches
	MaxSubcalls = maxSubcalls
)
