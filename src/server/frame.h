#ifndef ST4ML_SERVER_FRAME_H_
#define ST4ML_SERVER_FRAME_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace st4ml {
namespace server {

/// Wire framing for the st4mld protocol (DESIGN.md §10): every message is a
/// 4-byte big-endian payload length followed by that many bytes of JSON.
/// Length-prefixing keeps the reader trivially robust — no delimiter
/// scanning, no partial-JSON buffering — and makes oversized requests
/// rejectable before a single payload byte is parsed.

/// Writes one frame (length prefix + payload) to `fd` as one gather write,
/// looping over partial writes and EINTR. IOError on any write failure or
/// peer reset; a closed peer is EPIPE, never SIGPIPE.
Status WriteFrame(int fd, const std::string& payload);

/// Reads one complete frame from `fd`.
///   - Clean EOF at a frame boundary (peer closed between requests) returns
///     NotFound("connection closed") — the server's loop-exit sentinel, not
///     an error worth logging.
///   - EOF mid-frame returns IOError (truncated frame).
///   - A declared length above `max_bytes` returns InvalidArgument WITHOUT
///     reading the payload, so a hostile 4 GiB prefix cannot make the
///     server allocate.
StatusOr<std::string> ReadFrame(int fd, size_t max_bytes);

/// Disables Nagle on a connected TCP socket. Every st4mld socket, client
/// and server side, sets it: the protocol is request/response, so a held
/// segment waits on the peer's delayed ACK instead of on more data.
Status SetTcpNoDelay(int fd);

}  // namespace server
}  // namespace st4ml

#endif  // ST4ML_SERVER_FRAME_H_
