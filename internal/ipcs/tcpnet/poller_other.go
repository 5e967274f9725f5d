//go:build !linux

package tcpnet

// Off Linux there is no epoll poller: each started connection
// gets one blocking-reader goroutine. The ipcs contract is identical;
// only the goroutine economics differ.

// connOS is empty off Linux; the blocking reader keeps all its state on
// its own stack.
type connOS struct{}

func (c *conn) startRecv()  { c.startBlockingReader() }
func (c *conn) detachRecv() {}
func (c *conn) wakeRecv()   {}

// Run exists so the conn satisfies ipcs.Task on every platform.
func (c *conn) Run() {}
