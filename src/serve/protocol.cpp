#include "serve/protocol.hpp"

#include <cerrno>
#include <istream>
#include <ostream>

#include "circuit/qbin.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/fs.hpp"
#include "common/text.hpp"

namespace qaoa::serve {

Status
readFrame(std::istream &in, std::string &payload, std::uint32_t max_bytes)
{
    if (const auto fp = failpoint::poll("serve.frame_read"); fp.fires()) {
        errno = fp.error_number != 0 ? fp.error_number : EIO;
        return {ErrorCode::IoError,
                fs::errnoDetail("protocol: injected read fault"), 0};
    }
    unsigned char header[4];
    in.read(reinterpret_cast<char *>(header), 4);
    const std::streamsize got = in.gcount();
    if (got == 0) {
        // Zero header bytes is a clean disconnect only when the stream
        // actually hit EOF; a read that produced nothing for any other
        // reason (I/O error, stream already failed) is a framing error,
        // not end-of-stream.
        if (!in.eof() || in.bad())
            return {ErrorCode::IoError,
                    "protocol: stream error before a frame header", 0};
        return {ErrorCode::EndOfStream,
                "protocol: clean disconnect at a frame boundary"};
    }
    if (got != 4)
        return {ErrorCode::Truncated,
                "protocol: truncated frame header (got " +
                    std::to_string(got) + " of 4 length bytes)",
                got};
    const std::uint32_t length =
        (static_cast<std::uint32_t>(header[0]) << 24) |
        (static_cast<std::uint32_t>(header[1]) << 16) |
        (static_cast<std::uint32_t>(header[2]) << 8) |
        static_cast<std::uint32_t>(header[3]);
    if (length > max_bytes)
        return {ErrorCode::ResourceExhausted,
                "protocol: frame of " + std::to_string(length) +
                    " bytes exceeds cap of " + std::to_string(max_bytes),
                0};
    payload.resize(length);
    if (length > 0) {
        in.read(payload.data(), static_cast<std::streamsize>(length));
        if (static_cast<std::uint32_t>(in.gcount()) != length)
            return {ErrorCode::Truncated,
                    "protocol: truncated frame body (got " +
                        std::to_string(in.gcount()) + " of " +
                        std::to_string(length) + " bytes)",
                    4 + in.gcount()};
    }
    return Status();
}

void
writeFrame(std::ostream &out, const std::string &payload)
{
    QAOA_CHECK(payload.size() <= kMaxFrameBytes,
               "protocol: refusing to write a "
                   << payload.size() << "-byte frame (cap "
                   << kMaxFrameBytes << ")");
    const auto length = static_cast<std::uint32_t>(payload.size());
    const unsigned char header[4] = {
        static_cast<unsigned char>((length >> 24) & 0xff),
        static_cast<unsigned char>((length >> 16) & 0xff),
        static_cast<unsigned char>((length >> 8) & 0xff),
        static_cast<unsigned char>(length & 0xff),
    };
    const auto fp = failpoint::poll("serve.frame_write");
    if (fp.fires() && fp.action != failpoint::Action::ShortWrite) {
        errno = fp.error_number != 0 ? fp.error_number : EPIPE;
        raiseError(ErrorCode::IoError,
                   fs::errnoDetail("protocol: injected write fault"));
    }
    out.write(reinterpret_cast<const char *>(header), 4);
    if (fp.fires()) {
        // ShortWrite: the header went out, the body never does — the
        // torn frame a daemon dying mid-response leaves on the wire.
        out.flush();
        errno = fp.error_number != 0 ? fp.error_number : EPIPE;
        raiseError(ErrorCode::IoError,
                   fs::errnoDetail("protocol: injected short frame write"));
    }
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    if (!out.good()) {
        // EPIPE/closed-pipe territory: with SIGPIPE ignored, a client
        // that vanished mid-response surfaces here as a stream error —
        // a structured IoError the caller can log and survive, never a
        // process-killing signal or an assertion.
        raiseError(ErrorCode::IoError,
                   "protocol: frame write failed (client gone?)");
    }
}

std::string
encodeCompileMessage(const CompileRequest &request)
{
    kv::Record rec;
    rec.set("type", "compile");
    requestToRecord(request, rec);
    return kv::serialize(rec);
}

std::string
encodeCancelMessage(const std::string &id)
{
    kv::Record rec;
    rec.set("type", "cancel");
    rec.set("id", id);
    return kv::serialize(rec);
}

std::string
encodeControlMessage(const std::string &type)
{
    QAOA_CHECK(type == "stats" || type == "shutdown",
               "protocol: unknown control message: " << type);
    kv::Record rec;
    rec.set("type", type);
    return kv::serialize(rec);
}

std::string
encodeResponse(const ServeResponse &r)
{
    kv::Record rec;
    rec.set("type", r.type);
    rec.set("id", r.id);
    if (!r.status.empty())
        rec.set("status", r.status);
    rec.set("cache_hit", r.cache_hit ? "1" : "0");
    rec.set("pressure", r.pressure);
    if (r.type == "shed")
        rec.set("retry_after_ms", text::formatHexDouble(r.retry_after_ms));
    if (!r.error.empty())
        rec.set("error", r.error);
    if (!r.error_code.empty())
        rec.set("error_code", r.error_code);
    if (r.error_offset >= 0)
        rec.set("error_offset", std::to_string(r.error_offset));
    if (!r.qbin.empty()) {
        // kv records are text-only (flat JSON with a restricted escape
        // set), so the binary circuit document travels base64-encoded.
        rec.set("qbin", circuit::qbin::toBase64(r.qbin));
        rec.set("depth", std::to_string(r.depth));
        rec.set("gate_count", std::to_string(r.gate_count));
        rec.set("cx_count", std::to_string(r.cx_count));
        rec.set("swap_count", std::to_string(r.swap_count));
    }
    rec.set("compile_ms", text::formatHexDouble(r.compile_ms));
    if (!r.diagnostics.empty())
        rec.set("diagnostics", text::join(r.diagnostics, '\n'));
    return kv::serialize(rec);
}

ServeResponse
decodeResponse(const std::string &payload)
{
    const kv::Record rec = kv::parse(payload);
    const auto read = [&](const char *key, auto parse, auto &out) {
        if (rec.has(key))
            out = text::orThrow(parse(rec.get(key)), "protocol", key);
    };
    const auto integer = [](const std::string &v) {
        return text::parseInt(v);
    };
    ServeResponse r;
    r.type = rec.get("type");
    QAOA_CHECK(r.type == "result" || r.type == "shed" ||
                   r.type == "error" || r.type == "stats",
               "protocol: unknown response type: " << r.type);
    r.id = rec.get("id", "");
    r.status = rec.get("status", "");
    r.cache_hit = rec.get("cache_hit", "0") == "1";
    r.pressure = rec.get("pressure", "normal");
    read("retry_after_ms", text::parseHexDouble, r.retry_after_ms);
    r.error = rec.get("error", "");
    r.error_code = rec.get("error_code", "");
    read("error_offset", integer, r.error_offset);
    if (rec.has("qbin"))
        r.qbin = circuit::qbin::fromBase64(rec.get("qbin"));
    read("depth", integer, r.depth);
    read("gate_count", integer, r.gate_count);
    read("cx_count", integer, r.cx_count);
    read("swap_count", integer, r.swap_count);
    read("compile_ms", text::parseHexDouble, r.compile_ms);
    if (rec.has("diagnostics"))
        r.diagnostics = text::split(rec.get("diagnostics"), '\n');
    return r;
}

circuit::Circuit
ServeResponse::decodedCircuit() const
{
    QAOA_CHECK(hasCircuit(),
               "protocol: response carries no circuit payload");
    return circuit::qbin::decodeCircuit(qbin);
}

} // namespace qaoa::serve
