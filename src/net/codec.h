// Wire codec — the serialization scaffolding of the communication layer.
//
// The simulator ships payloads by pointer, but message *sizes* drive both
// transmission delay and (un)marshaling CPU cost, so they must be honest.
// This codec defines the actual wire format (varint-compressed, like the
// paper's Java implementation's hand-rolled externalization), provides
// encode/decode for every protocol message, and is what net::wire's sizing
// helpers are validated against in tests. Encoding is also exercised for
// real in the persistence layer's write-ahead log.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/analysis_annotations.h"
#include "core/transaction.h"
#include "store/mv_store.h"

namespace gdur::net::codec {

/// Append-only byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 variable-length unsigned integer.
  void varint(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  /// Moves the buffer out (zero-copy handoff to Reactor::send_frame); the
  /// writer is empty afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential byte source. Reads return nullopt on malformed/truncated
/// input instead of throwing.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::uint64_t> varint();
  std::optional<std::int64_t> i64();
  std::optional<std::string> str();

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

// --- protocol message encodings ---------------------------------------------

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_stamp(Writer& w, const versioning::Stamp& s);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<versioning::Stamp> decode_stamp(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_snapshot(Writer& w, const versioning::TxnSnapshot& s);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<versioning::TxnSnapshot> decode_snapshot(Reader& r);

/// Full termination record: ids, read/write sets, read entries, snapshot,
/// stamp. After-values are represented by their size only (they carry no
/// information the simulator uses), encoded as a length marker per write.
GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_txn(Writer& w, const core::TxnRecord& t,
                std::uint64_t payload_bytes_per_write);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<core::TxnRecord> decode_txn(Reader& r);

/// Exact wire size of a termination message under this codec.
std::uint64_t encoded_txn_size(const core::TxnRecord& t,
                               std::uint64_t payload_bytes_per_write);

// --- live-runtime message classes --------------------------------------------
//
// In the simulator payloads travel by pointer; the live runtime (src/live)
// ships every protocol message as real bytes, framed as one type tag
// followed by the body encoded below. Every class here round-trips
// byte-exactly and rejects malformed input with nullopt (tests/test_codec).

/// Frame type tag — first byte of every live frame. Values 1–15 are
/// inter-site protocol traffic; 32+ is the client (front-door) protocol.
enum class MsgType : std::uint8_t {
  kTermDeliver = 1,  // body: encode_txn (termination record)
  kTermSubmit = 2,   // body: TermSubmitMsg (origin -> sequencer)
  kVote = 3,         // body: VoteMsg
  kDecision = 4,     // body: DecisionMsg
  kPaxos2a = 5,      // body: PaxosMsg (acceptor field unused)
  kPaxos2b = 6,      // body: PaxosMsg
  kReadRequest = 7,  // body: ReadRequestMsg
  kReadReply = 8,    // body: ReadReplyMsg
  kPropagate = 9,    // body: PropagateMsg
  kControl = 10,     // body: ControlMsg (connection handshake etc.)
  kBatch = 11,       // body: coalesced inner frames (encode_batch)
  kClientHello = 32,    // body: ClientHelloMsg (client -> server)
  kClientWelcome = 33,  // body: ClientWelcomeMsg (server -> client)
  kClientReq = 34,      // body: ClientReqMsg
  kClientResp = 35,     // body: ClientRespMsg
  kPushback = 36,       // body: PushbackMsg (server -> client)
};

/// A certification vote (GC participant vote or 2PC vote to the coord).
struct VoteMsg {
  TxnId txn;
  SiteId voter = 0;
  bool vote = false;
};

/// 2PC / Paxos outcome, or a decided site answering an in-doubt voter.
struct DecisionMsg {
  TxnId txn;
  bool commit = false;
};

/// Paxos Commit phase 2a (participant -> acceptor; `acceptor` unused) and
/// 2b (acceptor -> coordinator).
struct PaxosMsg {
  TxnId txn;
  SiteId participant = 0;
  bool vote = false;
  SiteId acceptor = 0;
};

/// Remote read request: the requester's snapshot travels with it
/// (Algorithm 1 line 13). `req` correlates the reply.
struct ReadRequestMsg {
  std::uint64_t req = 0;
  SiteId requester = 0;
  ObjectId obj = 0;
  versioning::TxnSnapshot snap;
};

/// Remote read reply: the chosen version (absent for the implicit initial
/// version) plus its after-value, represented by a length marker + opaque
/// bytes exactly like termination after-values.
struct ReadReplyMsg {
  std::uint64_t req = 0;
  bool ok = false;
  bool has_version = false;
  store::Version version;  // meaningful only when has_version
  std::uint64_t payload_bytes = 0;
};

/// Termination submission to the ordering sequencer: destination list +
/// the full termination record.
struct TermSubmitMsg {
  std::vector<SiteId> dests;
  core::TxnRecord txn;
};

/// Background stamp propagation (Walter / S-DUR post_commit).
struct PropagateMsg {
  SiteId from = 0;
  versioning::Stamp stamp;
};

/// Control-plane message (live connection handshake: kind 1 = hello, arg =
/// the connecting site's id).
struct ControlMsg {
  std::uint64_t kind = 0;
  std::uint64_t arg = 0;
};

// --- client (front-door) protocol --------------------------------------------
//
// A GdurClient connection speaks these frames against front::FrontServer:
// hello/welcome establishes a session pinned to one site, then pipelined
// requests carry a client-chosen cookie echoed in the response. Pushback
// frames are the server's explicit backpressure signal (cert queues past a
// watermark): clients stop submitting until the resume frame.

/// Operations a client request can carry. kStored runs a one-shot stored
/// transaction (all reads then all writes then commit) entirely server-side
/// — one round trip instead of 2 + reads + writes.
enum class ClientOp : std::uint8_t {
  kBegin = 1,
  kRead = 2,
  kWrite = 3,
  kCommit = 4,
  kStored = 5,
};

/// First client frame on a connection. `site_hint` requests a coordinator
/// site (kNoSite = server picks one).
struct ClientHelloMsg {
  std::uint64_t version = 1;
  SiteId site_hint = kNoSite;
};

/// Server's session grant: the session id, the agreed per-session in-flight
/// window, the coordinator site and its protocol name.
struct ClientWelcomeMsg {
  std::uint64_t session = 0;
  std::uint32_t window = 0;
  SiteId site = 0;
  std::string protocol;
};

/// One pipelined request. `txn` is the server-issued transaction handle
/// (from the kBegin response); `obj` is the object of kRead/kWrite;
/// `reads`/`writes` are the footprint of a kStored transaction.
struct ClientReqMsg {
  std::uint64_t cookie = 0;
  ClientOp op = ClientOp::kBegin;
  std::uint64_t txn = 0;
  ObjectId obj = 0;
  std::vector<ObjectId> reads;
  std::vector<ObjectId> writes;
};

/// Response to one request, correlated by cookie. `ok` is the operation
/// verdict (for kCommit/kStored: committed; a kRead with ok=false aborts
/// the transaction, so a later kCommit on its handle answers ok=false).
/// `txn` echoes the handle (kBegin: the newly issued one). `payload_bytes` sizes the after-value a
/// kRead returns, same length-marker convention as read replies.
struct ClientRespMsg {
  std::uint64_t cookie = 0;
  ClientOp op = ClientOp::kBegin;
  bool ok = false;
  std::uint64_t txn = 0;
  std::uint64_t payload_bytes = 0;
};

/// Server backpressure: stop (or resume) submitting on this session.
/// `depth` is the certification-queue depth that tripped the watermark.
struct PushbackMsg {
  bool stop = false;
  std::uint64_t depth = 0;
};

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_version(Writer& w, const store::Version& v);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<store::Version> decode_version(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_vote(Writer& w, const VoteMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<VoteMsg> decode_vote(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_decision(Writer& w, const DecisionMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<DecisionMsg> decode_decision(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_paxos(Writer& w, const PaxosMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<PaxosMsg> decode_paxos(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_read_request(Writer& w, const ReadRequestMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ReadRequestMsg> decode_read_request(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_read_reply(Writer& w, const ReadReplyMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ReadReplyMsg> decode_read_reply(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_term_submit(Writer& w, const TermSubmitMsg& m,
                        std::uint64_t payload_bytes_per_write);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<TermSubmitMsg> decode_term_submit(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_propagate(Writer& w, const PropagateMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<PropagateMsg> decode_propagate(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_control(Writer& w, const ControlMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ControlMsg> decode_control(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_client_hello(Writer& w, const ClientHelloMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ClientHelloMsg> decode_client_hello(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_client_welcome(Writer& w, const ClientWelcomeMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ClientWelcomeMsg> decode_client_welcome(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_client_req(Writer& w, const ClientReqMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ClientReqMsg> decode_client_req(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_client_resp(Writer& w, const ClientRespMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<ClientRespMsg> decode_client_resp(Reader& r);

GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_pushback(Writer& w, const PushbackMsg& m);
GDUR_HOT_PATH("nolock,noclock,noblock")
std::optional<PushbackMsg> decode_pushback(Reader& r);

/// Coalesced frame (vote/ack batching): `frames` are complete tagged frame
/// bodies (type byte + payload) sharing one wire frame and one length
/// prefix. Body layout: varint count, then per item varint len + bytes.
/// Nested batches are rejected on decode, as are empty items.
GDUR_HOT_PATH("nolock,noclock,noblock")
void encode_batch(Writer& w,
                  const std::vector<std::vector<std::uint8_t>>& frames);
std::optional<std::vector<std::vector<std::uint8_t>>> decode_batch(Reader& r);

}  // namespace gdur::net::codec
