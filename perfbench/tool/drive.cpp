// drive: replays a request plan against an HTTP/1.1 server over ONE
// keep-alive connection, one request in flight, and records per request
// when it was due, when it was sent, when its response arrived, the HTTP
// status and the body.
//
// Plan: one request per line, `<due_ns|sync> <METHOD> <path> [<body>]`.
// A numeric due time is an offset from the start of the run (open loop:
// the schedule does not wait for the server); `sync` means "as soon as
// the previous response has arrived" (closed loop). A request due while
// an earlier one is still in flight is sent when that one is answered,
// and its latency still counts from its due time, so a stall is charged
// to every request that fell due during it.
//
// Requests are not pipelined: mfallocd's HTTP server drops pipelined
// bytes that arrive in a later read than a complete request (see
// README.md), and a lost request would stall the run.
//
// The response framing here is the benchmark's own (Content-Length
// bodies only, which is all mfallocd sends), so a change to the
// repository's HTTP code moves the server side only.
//
// Results: `<i> <due_ns> <sent_ns> <recv_ns> <status> <body>` per line;
// status 0 marks a request lost to a transport error.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "tool.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Request {
  bool sync = false;
  std::int64_t due_ns = 0;
  std::string bytes;  // the formatted request
};

struct Record {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  int status = 0;
  std::string body;
};

bool load_plan(const std::string& path, std::vector<Request>& plan) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t a = line.find(' ');
    const std::size_t b = a == std::string::npos ? a : line.find(' ', a + 1);
    if (b == std::string::npos) return false;
    const std::size_t c = line.find(' ', b + 1);
    Request r;
    const std::string due = line.substr(0, a);
    r.sync = due == "sync";
    if (!r.sync) {
      char* end = nullptr;
      r.due_ns = std::strtoll(due.c_str(), &end, 10);
      if (end == due.c_str() || *end != '\0') return false;
    }
    const std::string method = line.substr(a + 1, b - a - 1);
    const std::string path_part =
        line.substr(b + 1, c == std::string::npos ? c : c - b - 1);
    const std::string body =
        c == std::string::npos ? std::string() : line.substr(c + 1);
    r.bytes = method + " " + path_part +
              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              "Content-Type: application/json\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n\r\n" + body;
    plan.push_back(std::move(r));
  }
  return true;
}

/// Reads Content-Length-framed responses off a blocking socket.
class ResponseReader {
 public:
  explicit ResponseReader(int fd) : fd_(fd) {}

  /// Next response; false on EOF, socket error or a malformed head.
  bool next(int& status, std::string& body) {
    std::size_t head_end = std::string::npos;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return false;
    }
    // "HTTP/1.1 200 OK"
    const std::size_t sp = buffer_.find(' ');
    if (sp == std::string::npos || sp > head_end) return false;
    status = std::atoi(buffer_.c_str() + sp + 1);
    std::size_t length = 0;
    std::size_t line = buffer_.find("\r\n");
    while (line < head_end) {
      const std::size_t next_line = buffer_.find("\r\n", line + 2);
      const std::string header = buffer_.substr(line + 2, next_line - line - 2);
      if (header.size() > 15 &&
          strncasecmp(header.c_str(), "content-length:", 15) == 0) {
        length = std::strtoull(header.c_str() + 15, nullptr, 10);
      }
      line = next_line;
    }
    const std::size_t body_start = head_end + 4;
    while (buffer_.size() < body_start + length) {
      if (!fill()) return false;
    }
    body.assign(buffer_, body_start, length);
    while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
      body.pop_back();
    }
    buffer_.erase(0, body_start + length);
    return true;
  }

 private:
  bool fill() {
    char chunk[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  int fd_;
  std::string buffer_;
};

bool send_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::int64_t since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// Sleeps most of the way to `deadline`, then spins the last stretch:
/// the kernel's wake-up slack would otherwise be charged to the server.
void wait_until(Clock::time_point deadline) {
  const auto spin = std::chrono::microseconds(100);
  if (Clock::now() < deadline - spin) {
    std::this_thread::sleep_until(deadline - spin);
  }
  while (Clock::now() < deadline) {
  }
}

/// Sends each request at its due time (at once for `sync`, or when the
/// previous response arrives if that is later) and waits for its
/// response. Returns the number of requests answered.
std::size_t run_plan(int fd, const std::vector<Request>& plan,
                     std::vector<Record>& records, Clock::time_point t0) {
  ResponseReader reader(fd);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Record& r = records[i];
    if (plan[i].sync) {
      r.due_ns = since(t0);
    } else {
      r.due_ns = plan[i].due_ns;
      wait_until(t0 + std::chrono::nanoseconds(plan[i].due_ns));
    }
    r.sent_ns = since(t0);
    if (!send_all(fd, plan[i].bytes)) return i;
    if (!reader.next(r.status, r.body)) return i;
    r.recv_ns = since(t0);
  }
  return plan.size();
}

}  // namespace

int run_drive(const Args& args) {
  const int port = static_cast<int>(args.num("port", 0));
  std::vector<Request> plan;
  if (!load_plan(args.need("plan"), plan)) {
    std::fprintf(stderr, "drive: cannot read plan\n");
    return 2;
  }
  const int fd = connect_to(port);
  if (fd < 0) {
    std::fprintf(stderr, "drive: connect to port %d: %s\n", port,
                 std::strerror(errno));
    return 1;
  }
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::vector<Record> records(plan.size());
  const Clock::time_point t0 = Clock::now();
  const std::size_t answered = run_plan(fd, plan, records, t0);
  ::close(fd);

  std::ofstream out(args.need("out"));
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << i << ' ' << r.due_ns << ' ' << r.sent_ns << ' ' << r.recv_ns << ' '
        << (i < answered ? r.status : 0) << ' ' << r.body << '\n';
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "drive: cannot write results\n");
    return 1;
  }
  return 0;
}

}  // namespace perfbench
