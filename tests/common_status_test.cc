#include "common/status.h"

#include <gtest/gtest.h>

#include <type_traits>

namespace fuzzydb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, IsOnePointer) {
  EXPECT_EQ(sizeof(Status), sizeof(void*));
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<Status>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<Status>);
}

TEST(StatusTest, OkCopiesMovesAndCompares) {
  Status ok;
  Status copy = ok;
  Status moved = std::move(copy);
  EXPECT_TRUE(moved.ok());
  EXPECT_EQ(moved, Status::OK());
  EXPECT_EQ(moved.message(), "");
  EXPECT_EQ(moved.ToString(), "OK");
  EXPECT_FALSE(moved == Status::Internal(""));
  // An OK code makes an OK status whatever the message.
  EXPECT_EQ(Status(StatusCode::kOk, "ignored"), Status::OK());
}

TEST(StatusTest, ErrorCopyIsDeepAndMoveTransfers) {
  Status error = Status::DataLoss("bad page");
  Status copy = error;
  EXPECT_EQ(copy, error);
  EXPECT_NE(&copy.message(), &error.message());  // its own state
  Status moved = std::move(copy);
  EXPECT_EQ(moved.code(), StatusCode::kDataLoss);
  EXPECT_EQ(moved.ToString(), "DataLoss: bad page");
  EXPECT_EQ(error.ToString(), "DataLoss: bad page");

  // Assignment in every direction: error <- OK, OK <- error, self.
  Status target = Status::NotFound("x");
  target = Status::OK();
  EXPECT_TRUE(target.ok());
  target = error;
  EXPECT_EQ(target, error);
  const Status& alias = target;
  target = alias;
  EXPECT_EQ(target.ToString(), "DataLoss: bad page");
  target = std::move(moved);
  EXPECT_EQ(target, error);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

Status Inner(bool fail) {
  if (fail) return Status::Internal("inner failed");
  return Status::OK();
}

Status Outer(bool fail) {
  FUZZYDB_RETURN_NOT_OK(Inner(fail));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Outer(false).ok());
  EXPECT_EQ(Outer(true).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace fuzzydb
