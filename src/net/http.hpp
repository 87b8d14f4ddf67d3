// Minimal HTTP/1.1 message layer — no dependencies, no exceptions.
//
// The daemon needs exactly enough HTTP to speak JSON over loopback or a
// lab network: request-line + headers + Content-Length body, keep-alive,
// and typed errors for everything else. Parsing is incremental (feed
// bytes as they arrive from a socket; kComplete fires as soon as one
// full message is buffered) and hardened the same way io/json.hpp is:
// hard caps on header and body size (431/413), malformed bytes are a
// 400-classed error state, never UB or an abort. Unsupported transport
// features are rejected up front — Transfer-Encoding gets a 501 rather
// than a silently mis-framed body.
//
// Pipelining: leftover bytes after a complete message are retained;
// reset() re-arms the parser on them, so back-to-back requests on one
// connection parse without re-reading the socket.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mfa::net {

struct HttpRequest {
  std::string method;   ///< e.g. "GET", "POST" (kept as sent)
  std::string target;   ///< request path, e.g. "/v1/events"
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0"
  /// Headers in arrival order, names lower-cased (values trimmed).
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with this (lower-case) name, or nullptr.
  [[nodiscard]] const std::string* header(std::string_view name) const;
  /// Keep-alive per HTTP/1.1 defaults ("connection: close" opts out;
  /// HTTP/1.0 must opt in with "keep-alive").
  [[nodiscard]] bool keep_alive() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Canonical reason phrase ("OK", "Bad Request", ...; "Unknown" else).
const char* status_text(int status);

/// Serializes status line + Content-Type/Content-Length/Connection
/// headers + body.
std::string format_response(const HttpResponse& response, bool keep_alive);

/// Serializes a request (client side).
std::string format_request(const std::string& method,
                           const std::string& target,
                           const std::string& host,
                           const std::string& body);

struct ParserLimits {
  std::size_t max_head;  ///< request-line/status-line + headers
  std::size_t max_body;
  explicit ParserLimits(std::size_t head = 16 * 1024,
                        std::size_t body = 8 * 1024 * 1024)
      : max_head(head), max_body(body) {}
};

/// Incremental request parser (server side).
class RequestParser {
 public:
  enum class State { kIncomplete, kComplete, kError };

  explicit RequestParser(ParserLimits limits = ParserLimits());

  /// Buffers `bytes` and advances; returns the new state. Bytes fed
  /// while a request is complete are kept for reset() to replay. Once
  /// kError, the parser stays poisoned (and ignores input) until
  /// reset().
  State feed(std::string_view bytes);

  [[nodiscard]] State state() const { return state_; }
  /// HTTP status to answer a kError state with (400/413/431/501/505).
  [[nodiscard]] int error_status() const { return error_status_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Valid once state() == kComplete.
  [[nodiscard]] const HttpRequest& request() const { return request_; }

  /// Re-arms for the next message on this connection, replaying any
  /// pipelined leftover bytes.
  void reset();

 private:
  State fail(int status, std::string message);
  State advance();

  ParserLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;     ///< bytes of buffer_ already parsed
  bool have_head_ = false;
  std::size_t body_needed_ = 0;  ///< Content-Length once head parsed
  HttpRequest request_;
  State state_ = State::kIncomplete;
  int error_status_ = 400;
  std::string error_;
};

/// Incremental response parser (client side). Same shape as
/// RequestParser; bodies are framed by Content-Length only (the server
/// in this repo never chunks).
class ResponseParser {
 public:
  enum class State { kIncomplete, kComplete, kError };

  explicit ResponseParser(ParserLimits limits = ParserLimits());

  State feed(std::string_view bytes);
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const HttpResponse& response() const { return response_; }
  [[nodiscard]] int status() const { return response_.status; }

 private:
  State fail(std::string message);
  State advance();

  ParserLimits limits_;
  std::string buffer_;
  bool have_head_ = false;
  std::size_t body_start_ = 0;
  std::size_t body_needed_ = 0;
  HttpResponse response_;
  State state_ = State::kIncomplete;
  std::string error_;
};

}  // namespace mfa::net
