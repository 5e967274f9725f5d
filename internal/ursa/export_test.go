package ursa

// The search server's caps, for the backpressure tests.
const (
	MaxSearches = maxSearches
	SearchCalls = searchCalls
	MaxSubcalls = maxSearches * searchCalls
)
