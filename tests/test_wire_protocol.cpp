// The poolnetd wire protocol: frame encode/decode under arbitrary
// fragmentation, the canonical event byte encoding, the query language
// grammar, and seeded mutation fuzzing of every decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "common/rng.h"
#include "server/query_language.h"
#include "server/wire.h"

namespace poolnet::server {
namespace {

storage::Event make_event(std::uint64_t id, std::initializer_list<double> vs) {
  storage::Event e;
  e.id = id;
  e.source = static_cast<net::NodeId>(id * 7 % 100);
  for (double v : vs) e.values.push_back(v);
  e.detected_at = static_cast<double>(id) * 0.5;
  return e;
}

TEST(WireTest, RequestRoundTrip) {
  const auto bytes =
      encode_request(FrameType::Query, 42, "SELECT WHERE a0 IN [0.1, 0.9]");
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(dec.next(&frame));
  EXPECT_EQ(frame.type, FrameType::Query);
  PayloadReader r(frame.payload);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(r.rest_text(), "SELECT WHERE a0 IN [0.1, 0.9]");
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(dec.next(&frame));
  EXPECT_FALSE(dec.corrupt());
}

TEST(WireTest, ByteAtATimeFragmentation) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto f = encode_request(FrameType::Insert, id,
                                  "INSERT VALUES (0.1, 0.2, 0.3)");
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder dec;
  std::vector<std::uint64_t> seen;
  for (const std::uint8_t b : stream) {
    dec.feed(&b, 1);
    Frame frame;
    while (dec.next(&frame)) {
      PayloadReader r(frame.payload);
      seen.push_back(r.u64());
    }
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(dec.corrupt());
}

TEST(WireTest, CoalescedFramesDecodeIndividually) {
  std::vector<std::uint8_t> stream;
  const auto a = encode_result(7, ResultKind::Insert, {1, 2, 3, 4});
  const auto b = encode_error(8, ErrorCode::ServerBusy, "busy");
  stream.insert(stream.end(), a.begin(), a.end());
  stream.insert(stream.end(), b.begin(), b.end());
  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  Frame frame;
  ASSERT_TRUE(dec.next(&frame));
  EXPECT_EQ(frame.type, FrameType::Result);
  ASSERT_TRUE(dec.next(&frame));
  EXPECT_EQ(frame.type, FrameType::Error);
  PayloadReader r(frame.payload);
  EXPECT_EQ(r.u64(), 8u);
  EXPECT_EQ(static_cast<ErrorCode>(r.u16()), ErrorCode::ServerBusy);
  EXPECT_EQ(r.rest_text(), "busy");
}

TEST(WireTest, ZeroLengthFrameIsCorrupt) {
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  FrameDecoder dec;
  dec.feed(zeros, sizeof(zeros));
  Frame frame;
  EXPECT_FALSE(dec.next(&frame));
  EXPECT_TRUE(dec.corrupt());
}

TEST(WireTest, OversizedFrameIsCorrupt) {
  std::vector<std::uint8_t> header;
  put_u32(header, kMaxFrameBytes + 1);
  FrameDecoder dec;
  dec.feed(header.data(), header.size());
  Frame frame;
  EXPECT_FALSE(dec.next(&frame));
  EXPECT_TRUE(dec.corrupt());
}

TEST(WireTest, PayloadReaderShortReadSticks) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  PayloadReader r(three);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // still zero after the sticky error
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, EventsRoundTripExactly) {
  std::vector<storage::Event> events;
  events.push_back(make_event(1, {0.25, 0.5, 0.75}));
  events.push_back(make_event(999, {0.0, 1.0, 0.3333333333333333}));
  const auto bytes = encode_events(events);
  std::vector<storage::Event> back;
  ASSERT_TRUE(decode_events(bytes, &back));
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].id, events[i].id);
    EXPECT_EQ(back[i].source, events[i].source);
    EXPECT_EQ(back[i].values, events[i].values);
    EXPECT_EQ(back[i].detected_at, events[i].detected_at);
  }
  // Deterministic bytes: re-encoding is identical.
  EXPECT_EQ(encode_events(back), bytes);
}

TEST(WireTest, DecodeEventsRejectsTruncation) {
  const auto bytes = encode_events({make_event(5, {0.1, 0.2})});
  std::vector<storage::Event> back;
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_events(prefix, &back)) << "cut=" << cut;
  }
}

// --- query language -------------------------------------------------------

TEST(QueryLanguageTest, ParsesFullAndPartialSelects) {
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery q{one};
  std::string error;
  ASSERT_TRUE(parse_select(
      "SELECT WHERE a0 IN [0.1, 0.4] AND a2 IN [0.5, 0.5]", 3, &q, &error))
      << error;
  EXPECT_EQ(q.dims(), 3u);
  EXPECT_TRUE(q.specified(0));
  EXPECT_FALSE(q.specified(1));
  EXPECT_TRUE(q.specified(2));
  EXPECT_DOUBLE_EQ(q.bound(0).lo, 0.1);
  EXPECT_DOUBLE_EQ(q.bound(0).hi, 0.4);
  EXPECT_DOUBLE_EQ(q.bound(1).lo, 0.0);  // don't-care rewritten to [0,1]
  EXPECT_DOUBLE_EQ(q.bound(1).hi, 1.0);

  // Bare SELECT: every dimension is a don't-care.
  ASSERT_TRUE(parse_select("select", 3, &q, &error)) << error;
  EXPECT_EQ(q.specified_count(), 0u);
}

TEST(QueryLanguageTest, IsCaseInsensitive) {
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery q{one};
  std::string error;
  EXPECT_TRUE(parse_select("select where A1 in [ 0.2 , 0.8 ]", 2, &q, &error))
      << error;
  EXPECT_TRUE(q.specified(1));
}

TEST(QueryLanguageTest, RejectsBadSelects) {
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery q{one};
  std::string error;
  const char* bad[] = {
      "",                                          // no verb
      "DROP TABLE events",                         // wrong verb
      "SELECT WHERE",                              // empty clause list
      "SELECT WHERE a0 IN [0.1, 0.9] AND",         // dangling AND
      "SELECT WHERE a9 IN [0.1, 0.9]",             // attribute out of range
      "SELECT WHERE a0 IN [0.9, 0.1]",             // hi < lo
      "SELECT WHERE a0 IN [0.1, 1.5]",             // out of unit range
      "SELECT WHERE a0 IN [0.1, 0.9] AND a0 IN [0.2, 0.3]",  // duplicate
      "SELECT WHERE a0 IN [0.1 0.9]",              // missing comma
      "SELECT WHERE a0 IN 0.1, 0.9",               // missing brackets
  };
  for (const char* text : bad) {
    EXPECT_FALSE(parse_select(text, 3, &q, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(QueryLanguageTest, SelectTextRoundTrips) {
  storage::RangeQuery::Bounds bounds;
  FixedVec<bool, storage::kMaxDims> specified;
  bounds.push_back(ClosedInterval{1.0 / 3.0, 2.0 / 3.0});
  specified.push_back(true);
  bounds.push_back(ClosedInterval{0.0, 1.0});
  specified.push_back(false);
  bounds.push_back(ClosedInterval{0.123456789012345, 0.9});
  specified.push_back(true);
  const storage::RangeQuery q(bounds, specified);

  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery back{one};
  std::string error;
  ASSERT_TRUE(parse_select(to_select_text(q), 3, &back, &error)) << error;
  EXPECT_EQ(back, q);
}

TEST(QueryLanguageTest, ParsesAndRejectsInserts) {
  storage::Values values;
  std::string error;
  ASSERT_TRUE(parse_insert("INSERT VALUES (0.1, 0.2, 0.3)", 3, &values,
                           &error))
      << error;
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[1], 0.2);

  const char* bad[] = {
      "INSERT VALUES (0.1, 0.2)",         // too few for dims=3
      "INSERT VALUES (0.1, 0.2, 0.3, 0.4)",  // too many
      "INSERT VALUES (0.1, 0.2, 1.5)",    // out of unit range
      "INSERT VALUES 0.1, 0.2, 0.3",      // missing parens
      "INSERT VALUES (0.1, 0.2, 0.3) x",  // trailing tokens
      "INSERT (0.1, 0.2, 0.3)",           // missing VALUES
  };
  for (const char* text : bad)
    EXPECT_FALSE(parse_insert(text, 3, &values, &error)) << text;
}

// --- seeded mutation fuzzing ------------------------------------------------
//
// Frames and statements arrive from untrusted peers. Each case below takes
// valid inputs, applies seeded byte flips, truncations, length-field
// edits and splices, and requires every decoder to accept or reject the
// result cleanly; the ASan/UBSan CI jobs run the same cases and catch any
// out-of-bounds read.

using Bytes = std::vector<std::uint8_t>;

constexpr int kFuzzCases = 3000;

/// Uniform index in [0, n); n > 0.
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One to three random mutations of `in`, splicing from `donor`.
Bytes mutate(Rng& rng, Bytes in, const Bytes& donor) {
  for (auto rounds = rng.uniform_int(1, 3); rounds > 0; --rounds) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip a byte
        if (!in.empty())
          in[pick(rng, in.size())] ^=
              static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        break;
      case 1:  // truncate
        in.resize(pick(rng, in.size() + 1));
        break;
      case 2: {  // overwrite a u32 — at 0 it is the first frame's length
        if (in.size() < 4) break;
        static constexpr std::uint32_t kEdges[] = {
            0, 1, 8, 9, 0xff, kMaxFrameBytes, kMaxFrameBytes + 1, ~0u};
        std::uint32_t v = kEdges[pick(rng, std::size(kEdges))];
        if (rng.uniform() < 0.3)
          v = static_cast<std::uint32_t>(in.size()) - 2 +
              static_cast<std::uint32_t>(rng.uniform_int(0, 4));
        const std::size_t at =
            rng.uniform() < 0.5 ? 0 : pick(rng, in.size() - 3);
        for (std::size_t b = 0; b < 4; ++b)
          in[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
        break;
      }
      default: {  // splice a slice of the donor in
        if (donor.empty()) break;
        const std::size_t from = pick(rng, donor.size());
        const std::size_t len =
            1 + pick(rng, std::min<std::size_t>(donor.size() - from, 32));
        const auto at = static_cast<std::ptrdiff_t>(pick(rng, in.size() + 1));
        in.insert(in.begin() + at, donor.begin() + static_cast<long>(from),
                  donor.begin() + static_cast<long>(from + len));
      }
    }
  }
  return in;
}

Bytes as_bytes(const std::string& text) {
  return Bytes(text.begin(), text.end());
}

/// Whitespace-separated tokens of `text`, with tokens of the grammar
/// (and near misses) spliced in, replaced or deleted.
std::string splice_tokens(Rng& rng, const std::string& text) {
  static const char* kVocab[] = {
      "SELECT", "INSERT", "VALUES", "WHERE", "AND", "IN", "SKYLINE", "ON",
      "NEAREST", "TO", "WITHIN", "[", "]", "(", ")", ",", "a0", "a2", "a7",
      "a99999999999999999999", "0", "1", "0.5", "-0", "1e-320", "1e308",
      "nan", "inf", "0x1p-2", "18446744073709551617", "", "[[", "))"};
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : text + " ") {
    if (c != ' ') {
      token += c;
    } else if (!token.empty()) {
      tokens.push_back(token);
      token.clear();
    }
  }
  for (auto rounds = rng.uniform_int(1, 3); rounds > 0; --rounds) {
    const std::string word = kVocab[pick(rng, std::size(kVocab))];
    const std::size_t at = pick(rng, tokens.size() + 1);
    const auto it = tokens.begin() + static_cast<std::ptrdiff_t>(at);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        tokens.insert(it, word);
        break;
      case 1:
        if (it != tokens.end()) *it = word;
        break;
      default:
        if (it != tokens.end()) tokens.erase(it);
    }
  }
  std::string out;
  for (const std::string& t : tokens) out += (out.empty() ? "" : " ") + t;
  return out;
}

/// A mutated statement: byte-level or token-level, from `corpus`.
std::string mutate_statement(Rng& rng, const std::vector<std::string>& corpus) {
  const std::string& base = corpus[pick(rng, corpus.size())];
  if (rng.uniform() < 0.5) return splice_tokens(rng, base);
  const Bytes bytes = mutate(rng, as_bytes(base),
                             as_bytes(corpus[pick(rng, corpus.size())]));
  return std::string(bytes.begin(), bytes.end());
}

std::vector<Frame> decode_all(const Bytes& stream, Rng* chunk_rng,
                              bool* corrupt) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame frame;
  for (std::size_t pos = 0; pos < stream.size();) {
    const std::size_t n =
        chunk_rng ? 1 + pick(*chunk_rng, stream.size() - pos)
                  : stream.size() - pos;
    decoder.feed(stream.data() + pos, n);
    pos += n;
    while (decoder.next(&frame)) frames.push_back(frame);
  }
  *corrupt = decoder.corrupt();
  return frames;
}

TEST(WireFuzz, FrameDecoderAcceptsOrRejectsCleanly) {
  std::vector<Bytes> corpus = {
      encode_request(FrameType::Query, 1, "SELECT WHERE a0 IN [0.1, 0.9]"),
      encode_request(FrameType::Insert, 2, "INSERT VALUES (0.1, 0.2, 0.3)"),
      encode_request(FrameType::SubscribeMetrics, 3, ""),
      encode_result(4, ResultKind::Query,
                    encode_events({make_event(1, {0.25, 0.5, 0.75})})),
      encode_error(5, ErrorCode::ParseError, "bad statement"),
  };
  Bytes all;
  for (const Bytes& f : corpus) all.insert(all.end(), f.begin(), f.end());
  corpus.push_back(all);

  Rng rng(0xF4A3E);
  for (int i = 0; i < kFuzzCases; ++i) {
    const Bytes stream = mutate(rng, corpus[pick(rng, corpus.size())],
                                corpus[pick(rng, corpus.size())]);
    bool corrupt = false, chunked_corrupt = false;
    const std::vector<Frame> frames = decode_all(stream, nullptr, &corrupt);
    const std::vector<Frame> chunked =
        decode_all(stream, &rng, &chunked_corrupt);

    // Fragmentation never changes the outcome...
    ASSERT_EQ(chunked.size(), frames.size()) << "case " << i;
    EXPECT_EQ(chunked_corrupt, corrupt) << "case " << i;
    // ...and the frames handed out, laid back to back, are exactly a
    // prefix of the stream.
    Bytes again;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      EXPECT_EQ(chunked[f].type, frames[f].type);
      EXPECT_EQ(chunked[f].payload, frames[f].payload);
      EXPECT_LT(frames[f].payload.size(), kMaxFrameBytes);
      append_frame(again, frames[f].type, frames[f].payload);
    }
    ASSERT_LE(again.size(), stream.size()) << "case " << i;
    EXPECT_TRUE(std::equal(again.begin(), again.end(), stream.begin()))
        << "case " << i;
  }
}

TEST(WireFuzz, ParseQueryAcceptsOrRejectsCleanly) {
  const std::vector<std::string> corpus = {
      "SELECT",
      "SELECT WHERE a0 IN [0.1, 0.9]",
      "SELECT WHERE a0 IN [0.1, 0.5] AND a2 IN [0.4, 0.9]",
      "SELECT SKYLINE",
      "SELECT SKYLINE ON a0, a2",
      "SELECT NEAREST 5 TO (0.1, 0.2, 0.3)",
      "SELECT NEAREST 2 TO (0.5, 0.5, 0.5) WITHIN 0.25",
  };
  Rng rng(0xC0FFEE);
  std::size_t accepted = 0;
  for (int i = 0; i < kFuzzCases; ++i) {
    const std::string text = mutate_statement(rng, corpus);
    storage::RangeQuery::Bounds one;
    one.push_back(ClosedInterval{0.0, 1.0});
    storage::QueryRequest query{storage::RangeQuery{one}};
    std::string error;
    if (!parse_query(text, 3, &query, &error)) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    // Accepted input has a canonical text that parses to itself.
    ++accepted;
    const std::string canonical = to_query_text(query);
    storage::QueryRequest again{storage::RangeQuery{one}};
    ASSERT_TRUE(parse_query(canonical, 3, &again, &error))
        << text << " -> " << canonical << ": " << error;
    EXPECT_EQ(to_query_text(again), canonical) << text;
  }
  EXPECT_GT(accepted, 0u);
}

TEST(WireFuzz, ParseInsertAcceptsOrRejectsCleanly) {
  const std::vector<std::string> corpus = {
      "INSERT VALUES (0.1, 0.2, 0.3)",
      "INSERT VALUES (0, 1, 0.5)",
      "insert values (0.999, 0.001, 0.25)",
  };
  Rng rng(0x1A5E47);
  std::size_t accepted = 0;
  for (int i = 0; i < kFuzzCases; ++i) {
    const std::string text = mutate_statement(rng, corpus);
    storage::Values values;
    std::string error;
    if (!parse_insert(text, 3, &values, &error)) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    ASSERT_EQ(values.size(), 3u) << text;
    for (std::size_t d = 0; d < values.size(); ++d) {
      EXPECT_GE(values[d], 0.0) << text;
      EXPECT_LE(values[d], 1.0) << text;
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(WireFuzz, DecodeEventsAcceptsOrRejectsCleanly) {
  const std::vector<Bytes> corpus = {
      encode_events({}),
      encode_events({make_event(1, {0.25, 0.5, 0.75})}),
      encode_events({make_event(2, {0.1}), make_event(3, {0.2, 0.3}),
                     make_event(4, {0, 1, 0.5, 0.5, 0.25, 0.125, 0.1, 0.9})}),
  };
  Rng rng(0xDEC0DE);
  for (int i = 0; i < kFuzzCases; ++i) {
    const Bytes body = mutate(rng, corpus[pick(rng, corpus.size())],
                              corpus[pick(rng, corpus.size())]);
    std::vector<storage::Event> events;
    // The encoding is canonical: whatever decodes re-encodes to itself.
    if (decode_events(body, &events)) {
      EXPECT_EQ(encode_events(events), body) << "case " << i;
    }
  }
}

}  // namespace
}  // namespace poolnet::server
