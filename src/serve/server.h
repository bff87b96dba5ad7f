// LineServer: the persistent request loop of the serving front-end.
//
// Drives the newline-delimited protocol (serve/protocol.h) over plain
// file descriptors: the CLI's `uclean_cli serve` attaches stdin/stdout as
// one client, tests and the traffic-replay bench attach one socketpair
// end per simulated client. The loop poll(2)s every connection, splits
// complete lines out of per-connection buffers, and runs ADMISSION
// ROUNDS: at most one pending request per client per round, handed to
// Frontend::ExecuteRound in arrival order, one reply line written back
// per request on its own connection. Under load many clients have a
// pending head-of-queue request, so rounds are exactly where the
// admission batcher finds strangers to share a scan with.
//
// Hardening (tests/serve_protocol_test.cc): a malformed line -- unknown
// verb, bad k, junk arguments -- becomes a structured kInvalidArgument
// error reply IN ORDER on that connection and the loop keeps serving. A
// line longer than options.max_line_bytes is answered with one error
// reply and discarded up to its terminating newline (the connection
// resynchronizes). EOF flushes a trailing unterminated line as a final
// request, then drains the connection's queue and closes its session.
// Replies preserve per-connection request order unconditionally.
//
// This file (src/serve/) is the ONLY place in the library allowed to
// touch socket/fd primitives -- poll/read/write and friends are confined
// here by tools/check_contracts.py rule 7.
//
// Threading: SERIALIZED CALLER -- one thread owns Run(). Concurrency
// comes from the clients (other processes/threads writing the fds) and
// from the pool's exec options inside the scans, never from the loop.
//
// Write path: Run() ignores SIGPIPE process-wide, so a client that
// closed its end mid-stream turns into an EPIPE on write() and ONLY
// that connection is torn down -- likewise a read error past EINTR
// (e.g. ECONNRESET) drains and closes just that connection. Replies
// are still written with blocking write() from the serving thread: a
// LIVE client that stops draining its socket stalls the loop once the
// kernel buffer fills, freezing the other connections (head-of-line
// blocking). The intended clients -- the CLI's stdout, the tests and
// the bench harness -- always drain; a deployment facing hostile
// clients needs per-connection output buffers flushed under POLLOUT.

#ifndef UCLEAN_SERVE_SERVER_H_
#define UCLEAN_SERVE_SERVER_H_

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/frontend.h"
#include "serve/protocol.h"

namespace uclean {
namespace serve {

struct ServerOptions {
  /// Longest accepted request line, bytes (newline excluded). Longer
  /// lines get one error reply and are discarded to the next newline.
  size_t max_line_bytes = 1 << 16;
};

class LineServer {
 public:
  /// `frontend` must outlive the server (hard check on null).
  LineServer(Frontend* frontend, const ServerOptions& options);

  /// Attaches a connection: requests are read from `read_fd`, replies
  /// written to `write_fd` (equal fds -- a socketpair end -- are fine).
  /// The server closes both on disconnect. Opens a front-end client, so
  /// attach order determines each connection's probe seed.
  Result<size_t> AddClient(int read_fd, int write_fd);

  /// Serves until every connection reached EOF and drained. Per-request
  /// problems become error replies; only transport-level failures (a
  /// poll that cannot be retried) surface as a status.
  Status Run();

  size_t num_connections() const { return connections_.size(); }

 private:
  struct Connection {
    int read_fd = -1;
    int write_fd = -1;
    Frontend::ClientId client = 0;
    std::string buffer;
    /// Unserved lines in arrival order: a request, or the parse error
    /// its reply carries, so per-connection reply order holds.
    std::deque<Result<Request>> queue;
    bool discarding = false;  ///< inside an oversized line
    bool saw_eof = false;
    bool open = true;
  };

  /// Consumes complete lines from the connection's buffer.
  void ParseBuffered(Connection* conn, bool at_eof);
  void EnqueueLine(Connection* conn, std::string_view line);
  void EnqueueOversizeError(Connection* conn);
  Status WriteReply(Connection* conn, const Reply& reply);
  void CloseConnection(Connection* conn);

  Frontend* frontend_;
  ServerOptions options_;
  std::vector<Connection> connections_;
};

}  // namespace serve
}  // namespace uclean

#endif  // UCLEAN_SERVE_SERVER_H_
