(** Embedded language resources: stopword lists and reference letter
    frequencies for language identification, content vocabularies for the
    synthetic corpus generator, bilingual lexicons for the dictionary
    translator, and the NER/sentiment lexicons. *)

type language = En | Fr | De | Es

val all_languages : language list

val code : language -> string
(** ISO 639-1: "en", "fr", "de", "es". *)

val of_code : string -> language option

val stopwords : language -> string list

val letter_profile : language -> float array
(** Reference letter frequencies in percent, a..z. *)

val content_words : language -> string list
(** The corpus generator's vocabulary. *)

val to_english : language -> (string * string) list
(** The translator's lexicon (empty for English). *)

val gazetteer : (string * string) list
(** (name, kind) with kind ∈ person/organization/location. *)

val sentiment_lexicon : (string * int) list
(** Word polarity scores. *)
