//go:build race

package tcpnet

// raceEnabled lets allocation gates skip under the race detector, which
// makes sync.Pool drop a random share of Puts.
const raceEnabled = true
