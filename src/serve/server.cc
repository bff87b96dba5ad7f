#include "serve/server.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/check.h"

namespace uclean {
namespace serve {

LineServer::LineServer(Frontend* frontend, const ServerOptions& options)
    : frontend_(frontend), options_(options) {
  UCLEAN_CHECK(frontend_ != nullptr);
  UCLEAN_CHECK(options_.max_line_bytes >= 16);
}

Result<size_t> LineServer::AddClient(int read_fd, int write_fd) {
  if (read_fd < 0 || write_fd < 0) {
    return Status::InvalidArgument("AddClient: negative fd");
  }
  Connection conn;
  conn.read_fd = read_fd;
  conn.write_fd = write_fd;
  conn.client = frontend_->Connect();
  connections_.push_back(std::move(conn));
  return connections_.size() - 1;
}

void LineServer::EnqueueLine(Connection* conn, std::string_view line) {
  // Tolerate CRLF clients and skip blank lines (they are not requests).
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  bool blank = true;
  for (char c : line) {
    if (c != ' ' && c != '\t') {
      blank = false;
      break;
    }
  }
  if (blank) return;
  conn->queue.push_back(ParseRequest(line));
}

void LineServer::EnqueueOversizeError(Connection* conn) {
  conn->queue.push_back(Status::InvalidArgument(
      "request line exceeds " + std::to_string(options_.max_line_bytes) +
      " bytes"));
}

void LineServer::ParseBuffered(Connection* conn, bool at_eof) {
  size_t begin = 0;
  while (true) {
    const size_t newline = conn->buffer.find('\n', begin);
    if (newline == std::string::npos) break;
    if (conn->discarding) {
      // The tail of an oversized line: drop it, resynchronize.
      conn->discarding = false;
    } else if (newline - begin > options_.max_line_bytes) {
      // The whole oversized line arrived in one read. The cap must not
      // depend on arrival granularity, so it applies per line, not per
      // residual buffer.
      EnqueueOversizeError(conn);
    } else {
      EnqueueLine(conn, std::string_view(conn->buffer)
                            .substr(begin, newline - begin));
    }
    begin = newline + 1;
  }
  conn->buffer.erase(0, begin);
  if (conn->discarding) {
    conn->buffer.clear();
  } else if (conn->buffer.size() > options_.max_line_bytes) {
    EnqueueOversizeError(conn);
    conn->buffer.clear();
    conn->discarding = true;
  }
  if (at_eof && !conn->buffer.empty() && !conn->discarding) {
    // A truncated final line (no newline before EOF) still counts.
    EnqueueLine(conn, conn->buffer);
    conn->buffer.clear();
  }
}

Status LineServer::WriteReply(Connection* conn, const Reply& reply) {
  const std::string line = FormatReply(reply) + "\n";
  size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        write(conn->write_fd, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A client that closed its end mid-stream loses its replies; the
      // server keeps serving everyone else.
      CloseConnection(conn);
      return Status::OK();
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

void LineServer::CloseConnection(Connection* conn) {
  if (!conn->open) return;
  conn->open = false;
  conn->queue.clear();
  Status closed = frontend_->Disconnect(conn->client);
  UCLEAN_CHECK(closed.ok());
  close(conn->read_fd);
  if (conn->write_fd != conn->read_fd) close(conn->write_fd);
  conn->read_fd = -1;
  conn->write_fd = -1;
}

Status LineServer::Run() {
  // A reply can race a client that already closed its end; the write()
  // below must come back as EPIPE, not as a process-killing SIGPIPE, or
  // one dead client takes down every other connection.
  signal(SIGPIPE, SIG_IGN);
  std::vector<char> chunk(4096);
  while (true) {
    bool any_open = false;
    bool any_pending = false;
    bool any_readable = false;
    std::vector<pollfd> fds;
    std::vector<size_t> fd_conn;
    for (size_t c = 0; c < connections_.size(); ++c) {
      Connection& conn = connections_[c];
      if (!conn.open) continue;
      any_open = true;
      if (!conn.queue.empty()) any_pending = true;
      if (!conn.saw_eof) {
        any_readable = true;
        fds.push_back(pollfd{conn.read_fd, POLLIN, 0});
        fd_conn.push_back(c);
      }
    }
    if (!any_open) return Status::OK();
    if (!any_readable && !any_pending) {
      // Only EOF'd-and-drained connections remain: close them out.
      for (Connection& conn : connections_) {
        if (conn.open) CloseConnection(&conn);
      }
      return Status::OK();
    }

    if (!fds.empty()) {
      // Block only when there is nothing to execute; otherwise just
      // sweep for newly arrived requests so the next round admits them.
      const int ready = poll(fds.data(), fds.size(), any_pending ? 0 : -1);
      if (ready < 0 && errno != EINTR) {
        return Status::IOError(std::string("poll: ") + std::strerror(errno));
      }
      for (size_t j = 0; j < fds.size(); ++j) {
        if (ready <= 0) break;
        if ((fds[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Connection& conn = connections_[fd_conn[j]];
        // One read per poll readiness: the fd is blocking, so a second
        // read could park the loop mid-round; leftover bytes make the
        // next poll() return immediately instead.
        ssize_t n;
        do {
          n = read(conn.read_fd, chunk.data(), chunk.size());
        } while (n < 0 && errno == EINTR);
        if (n > 0) {
          conn.buffer.append(chunk.data(), static_cast<size_t>(n));
        } else {
          // n == 0 is EOF; a read error past EINTR (ECONNRESET from a
          // peer that closed with replies unread) is end-of-stream too,
          // or the dead fd stays in the poll set and spins the loop.
          conn.saw_eof = true;
        }
        ParseBuffered(&conn, conn.saw_eof);
      }
    }

    // Admission round: the head of every connection's queue.
    Frontend::Round round;
    std::vector<size_t> round_conn;
    for (size_t c = 0; c < connections_.size(); ++c) {
      Connection& conn = connections_[c];
      if (!conn.open || conn.queue.empty()) continue;
      Result<Request> head = std::move(conn.queue.front());
      conn.queue.pop_front();
      if (!head.ok()) {
        Reply error;
        error.status = head.status();
        UCLEAN_RETURN_IF_ERROR(WriteReply(&conn, error));
        continue;
      }
      round.emplace_back(conn.client, *head);
      round_conn.push_back(c);
    }
    if (!round.empty()) {
      const std::vector<Reply> replies = frontend_->ExecuteRound(round);
      for (size_t j = 0; j < replies.size(); ++j) {
        Connection& conn = connections_[round_conn[j]];
        if (!conn.open) continue;
        UCLEAN_RETURN_IF_ERROR(WriteReply(&conn, replies[j]));
      }
    }

    // Close connections that are done (EOF seen, everything served).
    for (Connection& conn : connections_) {
      if (conn.open && conn.saw_eof && conn.queue.empty() &&
          conn.buffer.empty()) {
        CloseConnection(&conn);
      }
    }
  }
}

}  // namespace serve
}  // namespace uclean
