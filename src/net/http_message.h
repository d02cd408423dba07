#ifndef VQLIB_NET_HTTP_MESSAGE_H_
#define VQLIB_NET_HTTP_MESSAGE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vqi {
namespace net {

/// Header fields in arrival order. Lookup is case-insensitive per RFC 9110.
using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// Returns the first header named `name` (case-insensitive), or "".
std::string_view FindHeader(const HttpHeaders& headers, std::string_view name);

/// One parsed HTTP/1.1 request.
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ... (verbatim, case-sensitive)
  std::string target;   ///< request target, e.g. "/query" or "/metrics?x=1"
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0"
  HttpHeaders headers;
  std::string body;

  /// Path portion of `target` (everything before '?').
  std::string_view path() const;
  /// Keep-alive semantics: HTTP/1.1 defaults to persistent unless
  /// "Connection: close"; HTTP/1.0 requires "Connection: keep-alive".
  bool keep_alive() const;
};

/// One HTTP response to serialize. Handlers fill status/body/content_type;
/// the server owns Connection and Content-Length framing.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers beyond Content-Type/Content-Length/Connection.
  HttpHeaders headers;
  /// Handler-requested connection close (the server may also force it).
  bool close = false;
};

/// Canonical reason phrase for `status` ("OK", "Bad Request", ...).
const char* HttpReasonPhrase(int status);

/// The body of every JSON error reply, from the server and the handlers
/// alike: {"error": {"code", "message"}}, where the code is
/// StatusCodeToString(status.code()).
std::string JsonErrorBody(const Status& status);

/// Serializes `response` with Content-Length framing. `close` controls the
/// Connection header (close vs keep-alive).
std::string SerializeResponse(const HttpResponse& response, bool close);

}  // namespace net
}  // namespace vqi

#endif  // VQLIB_NET_HTTP_MESSAGE_H_
