/// \file frame_test.cpp
/// \brief Framing-layer tests of the length-prefixed codec every framed
///        protocol (serve, fleet) shares: encode/decode round trips,
///        incremental feeds, malformed and oversized frames.
#include "ftmc/net/frame.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ftmc::net {
namespace {

TEST(Protocol, EncodePrefixesBigEndianLength) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(frame[0], '\x00');
  EXPECT_EQ(frame[1], '\x00');
  EXPECT_EQ(frame[2], '\x00');
  EXPECT_EQ(frame[3], '\x03');
  EXPECT_EQ(frame.substr(4), "abc");
}

TEST(Protocol, RoundTripsOneFrame) {
  FrameDecoder decoder;
  decoder.feed(encode_frame("{\"type\":\"ping\"}"));
  const auto payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"type\":\"ping\"}");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.idle());
}

TEST(Protocol, RoundTripsEmptyPayload) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(""));
  const auto payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "");
  EXPECT_TRUE(decoder.idle());
}

TEST(Protocol, DecodesByteAtATime) {
  // TCP is a byte stream: a frame may arrive in arbitrarily small
  // pieces. Every prefix short of the full frame must yield nothing.
  const std::string frame = encode_frame("hello");
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.feed(std::string_view(&frame[i], 1));
    EXPECT_FALSE(decoder.next().has_value()) << "byte " << i;
    EXPECT_FALSE(decoder.idle());
  }
  decoder.feed(std::string_view(&frame.back(), 1));
  const auto payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_TRUE(decoder.idle());
}

TEST(Protocol, DecodesMultipleFramesFromOneFeed) {
  FrameDecoder decoder;
  decoder.feed(encode_frame("one") + encode_frame("two") +
               encode_frame("three"));
  EXPECT_EQ(decoder.next().value(), "one");
  EXPECT_EQ(decoder.next().value(), "two");
  EXPECT_EQ(decoder.next().value(), "three");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.idle());
}

TEST(Protocol, TruncatedBodyIsIncompleteNotAnError) {
  FrameDecoder decoder;
  const std::string frame = encode_frame("abcdef");
  decoder.feed(frame.substr(0, frame.size() - 2));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.idle());  // EOF now would be a truncated stream
}

TEST(Protocol, OversizedLengthClaimThrows) {
  // A length field above the cap must fail *before* any buffering of
  // the claimed body — that is the memory-exhaustion guard.
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  std::string header;
  header += '\x00';
  header += '\x00';
  header += '\x00';
  header += '\x11';  // 17 > 16
  decoder.feed(header);
  EXPECT_THROW((void)decoder.next(), FrameError);
}

TEST(Protocol, MaxSizedFrameIsAccepted) {
  FrameDecoder decoder(/*max_frame_bytes=*/8);
  decoder.feed(encode_frame("12345678"));
  EXPECT_EQ(decoder.next().value(), "12345678");
}

TEST(Protocol, HighBitLengthsDecodeUnsigned) {
  // 0x80000000 must decode as 2 GiB, not a negative length.
  FrameDecoder decoder(/*max_frame_bytes=*/1u << 20);
  std::string header;
  header += static_cast<char>(0x80);
  header += '\x00';
  header += '\x00';
  header += '\x00';
  decoder.feed(header);
  EXPECT_THROW((void)decoder.next(), FrameError);
}

TEST(Protocol, PayloadMayContainArbitraryBytes) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload += static_cast<char>(i);
  FrameDecoder decoder;
  decoder.feed(encode_frame(payload));
  EXPECT_EQ(decoder.next().value(), payload);
}

}  // namespace
}  // namespace ftmc::net
