#include "service/http_server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/net_util.hh"
#include "support/failpoint.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace rfl::service
{

namespace
{

using Clock = std::chrono::steady_clock;
using net::lowercase;
using net::sendAll;
using net::trimWs;

/** Outcome of reading one request off a connection. */
enum class ReadResult
{
    Ok,
    Closed,    ///< peer closed / idle timeout / server stopping
    Malformed, ///< unparsable request (answer 400, close)
    TooLarge,  ///< exceeds maxRequestBytes (answer 413, close)
};

void
parseQuery(HttpRequest &req)
{
    const size_t q = req.target.find('?');
    req.path = req.target.substr(0, q);
    req.query =
        q == std::string::npos ? "" : req.target.substr(q + 1);
}

/** Parse start-line + headers in @p head into @p req. */
bool
parseHead(const std::string &head, HttpRequest &req)
{
    std::istringstream in(head);
    std::string line;
    if (!std::getline(in, line))
        return false;
    // Request line: METHOD SP target SP HTTP/1.x
    std::istringstream start(trimWs(line));
    std::string version;
    if (!(start >> req.method >> req.target >> version))
        return false;
    if (version.rfind("HTTP/1.", 0) != 0)
        return false;
    parseQuery(req);
    while (std::getline(in, line)) {
        line = trimWs(line);
        if (line.empty())
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            return false;
        req.headers[lowercase(trimWs(line.substr(0, colon)))] =
            trimWs(line.substr(colon + 1));
    }
    return true;
}

} // namespace

std::string
HttpRequest::header(const std::string &name,
                    const std::string &fallback) const
{
    const auto it = headers.find(name);
    return it == headers.end() ? fallback : it->second;
}

std::string
HttpRequest::queryParam(const std::string &name,
                        const std::string &fallback) const
{
    size_t pos = 0;
    while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const std::string pair = query.substr(pos, amp - pos);
        const size_t eq = pair.find('=');
        const std::string key =
            eq == std::string::npos ? pair : pair.substr(0, eq);
        if (key == name)
            return eq == std::string::npos ? "" : pair.substr(eq + 1);
        pos = amp + 1;
    }
    return fallback;
}

const char *
httpStatusText(int status)
{
    switch (status) {
      case 100: return "Continue";
      case 200: return "OK";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      case 504: return "Gateway Timeout";
      default: return "Unknown";
    }
}

HttpServer::HttpServer(HttpServerOptions opts) : opts_(std::move(opts))
{
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start(HttpHandler handler)
{
    RFL_ASSERT(handler != nullptr);
    RFL_ASSERT(!running_.load());
    handler_ = std::move(handler);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("http: cannot create socket: %s", std::strerror(errno));

    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("http: bad listen address '%s'", opts_.host.c_str());
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("http: cannot bind %s:%d: %s", opts_.host.c_str(),
              opts_.port, std::strerror(err));
    }
    if (::listen(listenFd_, 128) != 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("http: cannot listen: %s", std::strerror(err));
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0) {
        boundPort_ = ntohs(bound.sin_port);
    }

    stopping_.store(false);
    pool_ = std::make_unique<ThreadPool>(opts_.workers);
    running_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
HttpServer::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);
    // Unblock accept(): a shutdown listen socket returns EINVAL.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Connection workers poll stopping_ between requests and on their
    // 200 ms receive timeout; destroying the pool waits them all out.
    pool_.reset();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

HttpServerStats
HttpServer::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

void
HttpServer::acceptLoop()
{
    for (;;) {
        sockaddr_in peer{};
        socklen_t len = sizeof(peer);
        const int fd = ::accept(
            listenFd_, reinterpret_cast<sockaddr *>(&peer), &len);
        if (stopping_.load()) {
            if (fd >= 0)
                ::close(fd);
            return;
        }
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            // Transient resource exhaustion (EMFILE/ENFILE under
            // load) must not kill the accept loop for the daemon's
            // remaining lifetime: back off briefly and retry.
            warn("http: accept failed: %s (retrying)",
                 std::strerror(errno));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            continue;
        }
        // Fault-injection seam: a triggered accept failpoint drops the
        // connection post-accept — the client sees a reset, the loop
        // keeps serving.
        if (RFL_FAILPOINT("http.accept")) {
            ::close(fd);
            continue;
        }
        char ip[INET_ADDRSTRLEN] = "?";
        ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.connectionsAccepted;
        }
        // Short receive timeout: the serving loop wakes up regularly
        // to notice stop() even while a keep-alive peer is idle.
        timeval tv{};
        tv.tv_usec = 200 * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        // Bounded sends: a peer that stops reading must fail the
        // write (sendAll treats the timeout as a transport error and
        // the connection closes) instead of pinning a worker in
        // send() forever — that would deadlock graceful shutdown.
        timeval snd{};
        snd.tv_sec = 10;
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd));
        const int on = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
        pool_->submit([this, fd, addr = std::string(ip)] {
            serveConnection(fd, addr);
        });
    }
}

namespace
{

/**
 * Read one request. Returns when a full head + body is buffered, the
 * peer closes, the idle deadline passes, or @p stopping flips.
 * @p buffer carries pipelined leftovers between calls.
 */
ReadResult
readRequest(int fd, std::string &buffer, HttpRequest &req,
            const HttpServerOptions &opts,
            const std::atomic<bool> &stopping)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(opts.idleTimeoutMs);
    size_t headEnd = std::string::npos;
    size_t bodyLen = 0;
    bool haveHead = false;
    char chunk[4096];

    // Fault-injection seam: a receive fault reads as a peer reset.
    if (RFL_FAILPOINT("http.recv"))
        return ReadResult::Closed;

    for (;;) {
        // Checked every iteration, not only on receive timeouts: a
        // peer trickling one byte per recv() must not sidestep the
        // idle deadline or a pending shutdown (slow-loris).
        if (stopping.load() || Clock::now() >= deadline)
            return ReadResult::Closed;
        if (!haveHead) {
            headEnd = buffer.find("\r\n\r\n");
            if (headEnd != std::string::npos) {
                req = HttpRequest{};
                if (!parseHead(buffer.substr(0, headEnd), req))
                    return ReadResult::Malformed;
                haveHead = true;
                const std::string cl = req.header("content-length");
                if (!cl.empty()) {
                    char *end = nullptr;
                    const long v = std::strtol(cl.c_str(), &end, 10);
                    if (end == cl.c_str() || *end != '\0' || v < 0)
                        return ReadResult::Malformed;
                    bodyLen = static_cast<size_t>(v);
                }
                if (bodyLen > opts.maxRequestBytes)
                    return ReadResult::TooLarge;
                // Interim response for "Expect: 100-continue" clients
                // (curl holds the body back otherwise).
                if (lowercase(req.header("expect")) == "100-continue")
                    sendAll(fd, "HTTP/1.1 100 Continue\r\n\r\n", 25);
            }
        }
        if (haveHead) {
            const size_t bodyStart = headEnd + 4;
            if (buffer.size() >= bodyStart + bodyLen) {
                req.body = buffer.substr(bodyStart, bodyLen);
                buffer.erase(0, bodyStart + bodyLen);
                return ReadResult::Ok;
            }
        }
        if (buffer.size() > opts.maxRequestBytes)
            return ReadResult::TooLarge;

        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buffer.append(chunk, static_cast<size_t>(n));
            continue;
        }
        if (n == 0)
            return ReadResult::Closed;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (stopping.load() || Clock::now() >= deadline)
                return ReadResult::Closed;
            continue;
        }
        return ReadResult::Closed;
    }
}

/** Serialize and send @p resp; @return bytes written (0 on error). */
size_t
writeResponse(int fd, const HttpResponse &resp, bool keepAlive,
              size_t chunkBytes)
{
    // Fault-injection seam: a send fault reads as a transport error —
    // the caller closes the connection, exactly as for a real one.
    if (RFL_FAILPOINT("http.send"))
        return 0;
    std::ostringstream head;
    head << "HTTP/1.1 " << resp.status << " "
         << httpStatusText(resp.status) << "\r\n"
         << "Server: roofline-serve\r\n"
         << "Content-Type: " << resp.contentType << "\r\n"
         << "Connection: " << (keepAlive ? "keep-alive" : "close")
         << "\r\n";
    for (const auto &[name, value] : resp.headers)
        head << name << ": " << value << "\r\n";
    if (resp.chunked) {
        // Chunk framing: size in hex, CRLF, data, CRLF; zero-size
        // chunk terminates. Frames are written straight from the
        // body — no re-copied payload buffer, so a large artifact
        // held by many workers costs one allocation, not three.
        head << "Transfer-Encoding: chunked\r\n\r\n";
        const std::string headStr = head.str();
        if (!sendAll(fd, headStr.data(), headStr.size()))
            return 0;
        size_t wrote = headStr.size();
        char frame[32];
        for (size_t off = 0; off < resp.body.size();
             off += chunkBytes) {
            const size_t n =
                std::min(chunkBytes, resp.body.size() - off);
            const int flen = std::snprintf(frame, sizeof(frame),
                                           "%zx\r\n", n);
            if (flen <= 0 ||
                !sendAll(fd, frame, static_cast<size_t>(flen)) ||
                !sendAll(fd, resp.body.data() + off, n) ||
                !sendAll(fd, "\r\n", 2)) {
                return 0;
            }
            wrote += static_cast<size_t>(flen) + n + 2;
        }
        if (!sendAll(fd, "0\r\n\r\n", 5))
            return 0;
        return wrote + 5;
    }
    head << "Content-Length: " << resp.body.size() << "\r\n\r\n";
    const std::string headStr = head.str();
    if (!sendAll(fd, headStr.data(), headStr.size()) ||
        !sendAll(fd, resp.body.data(), resp.body.size())) {
        return 0;
    }
    return headStr.size() + resp.body.size();
}

} // namespace

void
HttpServer::serveConnection(int fd, const std::string &clientAddr)
{
    std::string buffer;
    for (;;) {
        HttpRequest req;
        const ReadResult rr =
            readRequest(fd, buffer, req, opts_, stopping_);
        if (rr == ReadResult::Closed)
            break;
        if (rr == ReadResult::Malformed || rr == ReadResult::TooLarge) {
            HttpResponse err;
            err.status = rr == ReadResult::Malformed ? 400 : 413;
            JsonWriter(err.body).beginObject().key("error")
                .string(rr == ReadResult::Malformed ? "malformed request"
                                                    : "request too large")
                .endObject();
            writeResponse(fd, err, false, opts_.chunkBytes);
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.parseErrors;
            break;
        }

        req.clientAddr = clientAddr;
        HttpResponse resp;
        try {
            resp = handler_(req);
        } catch (const std::exception &e) {
            resp = HttpResponse{};
            resp.status = 500;
            JsonWriter(resp.body).beginObject().key("error")
                .string(std::string("internal: ") + e.what())
                .endObject();
        }

        const bool clientClose =
            lowercase(req.header("connection")) == "close";
        const bool keepAlive = !clientClose && !resp.closeConnection &&
                               !stopping_.load();
        // Count the request before the response bytes hit the wire:
        // an observer who has the response must see it counted.
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++stats_.requestsServed;
        }
        const size_t wrote =
            writeResponse(fd, resp, keepAlive, opts_.chunkBytes);
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.bytesOut += wrote;
        }
        if (wrote == 0 || !keepAlive)
            break;
    }
    ::close(fd);
}

} // namespace rfl::service
