// Positive fixtures for enum-switch-exhaustiveness: a switch over a
// protocol enum that omits an enumerator, and one whose default:
// silently swallows.
namespace seep {

enum class MessageType { kHello = 1, kBatch, kControl };

int NonExhaustive(MessageType t) {
  switch (t) {
    case MessageType::kHello:
      return 1;
    case MessageType::kBatch:
      return 2;
  }
  return 0;
}

int SilentDefault(MessageType t) {
  switch (t) {
    case MessageType::kHello:
      return 1;
    case MessageType::kBatch:
      return 2;
    case MessageType::kControl:
      return 3;
    default:
      break;  // swallows unknown wire values without a trace
  }
  return 0;
}

}  // namespace seep
