package perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

object Digest {
  def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(StandardCharsets.UTF_8))
      .map(b => f"${b & 0xff}%02x").mkString
}
