/**
 * @file
 * Tiny shared helpers for the in-repo HTTP server and client — one
 * definition each for the string and socket primitives both sides
 * use, so fixes (partial-send handling, case-folding) cannot diverge
 * between the daemon and the client/bench that validates it.
 */

#ifndef RFL_SERVICE_NET_UTIL_HH
#define RFL_SERVICE_NET_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <string>

#include <sys/socket.h>

namespace rfl::service::net
{

/** ASCII-lowercase (header names; HTTP is case-insensitive). */
inline std::string
lowercase(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Strip leading/trailing spaces, tabs and CR. */
inline std::string
trimWs(const std::string &s)
{
    const size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    const size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

/**
 * Send all of @p data; @return false on any transport error,
 * including an SO_SNDTIMEO timeout (EAGAIN). MSG_NOSIGNAL: a peer
 * that hung up must surface as EPIPE, not kill the process with
 * SIGPIPE.
 */
inline bool
sendAll(int fd, const char *data, size_t len)
{
    size_t sent = 0;
    while (sent < len) {
        const ssize_t n =
            ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

} // namespace rfl::service::net

#endif // RFL_SERVICE_NET_UTIL_HH
