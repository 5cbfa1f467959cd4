#ifndef KLINK_NET_SOCKET_H_
#define KLINK_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace klink {

/// Thin POSIX TCP helpers shared by the ingest server and the loadgen
/// client. All functions report recoverable failures via Status; none
/// throw or abort.

/// Creates a non-blocking listening socket bound to 127.0.0.1:`port`
/// (port 0 picks an ephemeral port). On success returns the fd and stores
/// the bound port in `*bound_port`.
StatusOr<int> ListenTcp(uint16_t port, uint16_t* bound_port);

/// Blocking client connect to host:port. Returns the connected fd.
/// The socket stays blocking so a stalled server exerts TCP flow-control
/// backpressure on the caller (loadgen blocks in send()).
StatusOr<int> ConnectTcp(const std::string& host, uint16_t port);

/// Accepts one pending connection from a listening fd, non-blocking.
/// Returns the connection fd, -1 when no connection is pending.
StatusOr<int> AcceptNonBlocking(int listen_fd);

Status SetNonBlocking(int fd);

/// Disables Nagle so small frames flush promptly.
void SetNoDelay(int fd);

/// Blocking send of the whole buffer (loops over partial writes / EINTR).
Status SendAll(int fd, const uint8_t* data, size_t len);

/// Non-blocking read into `buf`. Returns bytes read (> 0), 0 on orderly
/// peer shutdown, -1 when no data is available (EAGAIN); other errors via
/// Status.
StatusOr<int64_t> ReadSome(int fd, uint8_t* buf, size_t len);

/// Like ReadSome but never blocks even on a blocking fd (MSG_DONTWAIT).
/// Used by the loadgen client — whose socket stays blocking for send-side
/// backpressure — to drain server acks opportunistically.
StatusOr<int64_t> ReadSomeNonBlocking(int fd, uint8_t* buf, size_t len);

void CloseFd(int fd);

/// Microseconds on the host's monotonic clock: the one wall-clock read of
/// the TCP paths (stall and idle timers, replay pacing, and the real-time
/// serve loop's virtual clock).
int64_t WallMicros();

}  // namespace klink

#endif  // KLINK_NET_SOCKET_H_
