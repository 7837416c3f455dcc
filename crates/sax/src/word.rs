use crate::breakpoints::{gaussian_breakpoints, symbol_index};
use crate::normalize::z_normalize;
use crate::paa::paa;
use crate::SaxError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of a SAX encoding: PAA segment count and alphabet size.
///
/// Two [`SaxWord`]s can only be compared when their configurations (and the
/// original series length, for MINDIST scaling) agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SaxConfig {
    segments: usize,
    alphabet: usize,
}

impl SaxConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// * [`SaxError::ZeroSegments`] when `segments == 0`;
    /// * [`SaxError::BadAlphabet`] unless `2 <= alphabet <= 26`.
    pub fn new(segments: usize, alphabet: usize) -> Result<Self, SaxError> {
        if segments == 0 {
            return Err(SaxError::ZeroSegments);
        }
        // Validate alphabet eagerly so encoders can't be built invalid.
        gaussian_breakpoints(alphabet)?;
        Ok(SaxConfig { segments, alphabet })
    }

    /// Number of PAA segments (word length).
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Alphabet size.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }
}

impl Default for SaxConfig {
    /// The configuration used by the paper-scale shape qualifier:
    /// 16 segments over an 8-letter alphabet.
    fn default() -> Self {
        SaxConfig {
            segments: 16,
            alphabet: 8,
        }
    }
}

/// A SAX word: the symbolic form of one time series.
///
/// Symbols are stored as indices `0..alphabet` and displayed as letters
/// `'a'..`. The original series length is retained because the MINDIST
/// between two words scales with `sqrt(n / w)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SaxWord {
    symbols: Vec<u8>,
    alphabet: usize,
    series_len: usize,
}

impl SaxWord {
    /// Builds a word directly from symbol indices.
    ///
    /// # Errors
    ///
    /// * [`SaxError::BadAlphabet`] for an unsupported alphabet;
    /// * [`SaxError::BadSymbol`] if any index is `>= alphabet`;
    /// * [`SaxError::ZeroSegments`] for an empty symbol list.
    fn from_symbols(
        symbols: Vec<u8>,
        alphabet: usize,
        series_len: usize,
    ) -> Result<Self, SaxError> {
        gaussian_breakpoints(alphabet)?;
        if symbols.is_empty() {
            return Err(SaxError::ZeroSegments);
        }
        if let Some(&bad) = symbols.iter().find(|&&s| s as usize >= alphabet) {
            return Err(SaxError::BadSymbol {
                symbol: (b'a' + bad) as char,
                alphabet,
            });
        }
        Ok(SaxWord {
            symbols,
            alphabet,
            series_len,
        })
    }

    /// Parses a word from its letter form (e.g. `"abca"`).
    ///
    /// # Errors
    ///
    /// * [`SaxError::BadAlphabet`] for an unsupported alphabet;
    /// * [`SaxError::BadSymbol`] for characters outside `'a'..alphabet`;
    /// * [`SaxError::ZeroSegments`] for an empty word.
    pub fn parse(text: &str, alphabet: usize, series_len: usize) -> Result<Self, SaxError> {
        gaussian_breakpoints(alphabet)?;
        let mut symbols = Vec::with_capacity(text.len());
        for ch in text.chars() {
            let idx = (ch as u32).wrapping_sub('a' as u32);
            if idx as usize >= alphabet {
                return Err(SaxError::BadSymbol {
                    symbol: ch,
                    alphabet,
                });
            }
            symbols.push(idx as u8);
        }
        SaxWord::from_symbols(symbols, alphabet, series_len)
    }

    /// The symbol indices.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// Alphabet size this word was encoded with.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Length of the original series (for MINDIST scaling).
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Word length (= PAA segment count).
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the word is empty (never true for validly constructed words).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Maximum absolute symbol-index difference across positions — the
    /// cheap "string comparison" the paper's qualifier uses: two shapes
    /// whose words never drift more than one symbol apart are compatible.
    ///
    /// # Errors
    ///
    /// Returns [`SaxError::ConfigMismatch`] if lengths or alphabets differ.
    pub fn max_symbol_gap(&self, other: &SaxWord) -> Result<usize, SaxError> {
        self.check_comparable(other)?;
        Ok(self
            .symbols
            .iter()
            .zip(other.symbols.iter())
            .map(|(&a, &b)| (a as isize - b as isize).unsigned_abs())
            .max()
            .unwrap_or(0))
    }

    pub(crate) fn check_comparable(&self, other: &SaxWord) -> Result<(), SaxError> {
        if self.len() != other.len() {
            return Err(SaxError::ConfigMismatch {
                reason: format!("word lengths {} vs {}", self.len(), other.len()),
            });
        }
        if self.alphabet != other.alphabet {
            return Err(SaxError::ConfigMismatch {
                reason: format!("alphabets {} vs {}", self.alphabet, other.alphabet),
            });
        }
        Ok(())
    }
}

impl fmt::Display for SaxWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &s in &self.symbols {
            write!(f, "{}", (b'a' + s) as char)?;
        }
        Ok(())
    }
}

/// Encodes time series into [`SaxWord`]s under a fixed [`SaxConfig`].
///
/// # Example
///
/// ```rust
/// use relcnn_sax::{SaxConfig, SaxEncoder};
///
/// # fn main() -> Result<(), relcnn_sax::SaxError> {
/// let enc = SaxEncoder::new(SaxConfig::new(8, 4)?);
/// let up: Vec<f32> = (0..64).map(|i| i as f32).collect();
/// let word = enc.encode(&up)?;
/// // A ramp passes monotonically through the alphabet.
/// assert_eq!(word.to_string(), "aabbccdd");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SaxEncoder {
    config: SaxConfig,
    breakpoints: Vec<f64>,
}

impl SaxEncoder {
    /// Creates an encoder; breakpoints are precomputed once.
    pub fn new(config: SaxConfig) -> Self {
        let breakpoints =
            gaussian_breakpoints(config.alphabet()).expect("config validated alphabet");
        SaxEncoder {
            config,
            breakpoints,
        }
    }

    /// The encoder's configuration.
    pub fn config(&self) -> SaxConfig {
        self.config
    }

    /// The precomputed Gaussian breakpoints.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// Encodes a raw series: z-normalise → PAA → symbolise.
    ///
    /// # Errors
    ///
    /// Propagates [`SaxError::EmptySeries`] / [`SaxError::SeriesTooShort`]
    /// from the PAA stage.
    pub fn encode(&self, series: &[f32]) -> Result<SaxWord, SaxError> {
        let z = z_normalize(series);
        let means = paa(&z, self.config.segments())?;
        let symbols = means
            .iter()
            .map(|&m| symbol_index(m as f64, &self.breakpoints) as u8)
            .collect();
        SaxWord::from_symbols(symbols, self.config.alphabet(), series.len())
    }

    /// Encodes a series that is *already z-normalised* (skips normalisation);
    /// used when the caller normalises once and encodes many windows.
    ///
    /// # Errors
    ///
    /// Propagates PAA-stage errors as for [`SaxEncoder::encode`].
    pub fn encode_normalized(&self, z_series: &[f32]) -> Result<SaxWord, SaxError> {
        let means = paa(z_series, self.config.segments())?;
        let symbols = means
            .iter()
            .map(|&m| symbol_index(m as f64, &self.breakpoints) as u8)
            .collect();
        SaxWord::from_symbols(symbols, self.config.alphabet(), z_series.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(SaxConfig::new(0, 4).is_err());
        assert!(SaxConfig::new(8, 1).is_err());
        assert!(SaxConfig::new(8, 27).is_err());
        let c = SaxConfig::new(8, 4).unwrap();
        assert_eq!((c.segments(), c.alphabet()), (8, 4));
        let d = SaxConfig::default();
        assert_eq!((d.segments(), d.alphabet()), (16, 8));
    }

    #[test]
    fn ramp_encodes_monotonically() {
        let enc = SaxEncoder::new(SaxConfig::new(8, 4).unwrap());
        let up: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let w = enc.encode(&up).unwrap();
        assert_eq!(w.to_string(), "aabbccdd");
        let down: Vec<f32> = (0..64).map(|i| -(i as f32)).collect();
        assert_eq!(enc.encode(&down).unwrap().to_string(), "ddccbbaa");
    }

    #[test]
    fn constant_series_maps_to_middle() {
        let enc = SaxEncoder::new(SaxConfig::new(4, 4).unwrap());
        let w = enc.encode(&[5.0; 32]).unwrap();
        // z-normalised constant = zeros; zero sits on breakpoint 0 of the
        // 4-letter alphabet -> symbol index 1 ('b') under the <= convention.
        assert_eq!(w.to_string(), "bbbb");
    }

    #[test]
    fn encode_is_amplitude_invariant() {
        let enc = SaxEncoder::new(SaxConfig::default());
        let base: Vec<f32> = (0..128).map(|i| (i as f32 / 11.0).sin()).collect();
        let scaled: Vec<f32> = base.iter().map(|v| v * 40.0 + 7.0).collect();
        assert_eq!(enc.encode(&base).unwrap(), enc.encode(&scaled).unwrap());
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let w = SaxWord::parse("abcdd", 5, 100).unwrap();
        assert_eq!(w.to_string(), "abcdd");
        assert_eq!(w.len(), 5);
        assert_eq!(w.series_len(), 100);
        assert!(SaxWord::parse("abz", 4, 10).is_err());
        assert!(SaxWord::parse("", 4, 10).is_err());
    }

    #[test]
    fn from_symbols_validates() {
        assert!(SaxWord::from_symbols(vec![0, 3], 4, 8).is_ok());
        assert!(SaxWord::from_symbols(vec![0, 4], 4, 8).is_err());
        assert!(SaxWord::from_symbols(vec![], 4, 8).is_err());
        assert!(SaxWord::from_symbols(vec![0], 1, 8).is_err());
    }

    #[test]
    fn symbol_gap() {
        let a = SaxWord::parse("aabb", 4, 16).unwrap();
        let b = SaxWord::parse("aabd", 4, 16).unwrap();
        assert_eq!(a.max_symbol_gap(&b).unwrap(), 2);
        assert_eq!(a.max_symbol_gap(&a).unwrap(), 0);
        let c = SaxWord::parse("aab", 4, 12).unwrap();
        assert!(a.max_symbol_gap(&c).is_err());
        let d = SaxWord::parse("aabb", 5, 16).unwrap();
        assert!(a.max_symbol_gap(&d).is_err());
    }

    #[test]
    fn encode_normalized_matches_encode() {
        let enc = SaxEncoder::new(SaxConfig::new(8, 6).unwrap());
        let series: Vec<f32> = (0..96).map(|i| ((i * 7) % 13) as f32).collect();
        let z = crate::normalize::z_normalize(&series);
        assert_eq!(
            enc.encode(&series).unwrap().symbols(),
            enc.encode_normalized(&z).unwrap().symbols()
        );
    }

    #[test]
    fn short_series_rejected() {
        let enc = SaxEncoder::new(SaxConfig::new(16, 4).unwrap());
        assert!(matches!(
            enc.encode(&[1.0; 8]),
            Err(SaxError::SeriesTooShort { .. })
        ));
        assert!(matches!(enc.encode(&[]), Err(SaxError::EmptySeries)));
    }
}
